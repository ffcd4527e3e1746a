package server

import (
	"net/http"
	"time"

	"bpomdp/internal/controller"
	"bpomdp/internal/obs"
)

// serverMetrics holds the server's registry-backed instruments. Every series
// the hand-rolled /metrics used to expose keeps its exact name; the registry
// adds HELP/TYPE metadata and per-handler request-latency histograms.
type serverMetrics struct {
	reg *obs.Registry

	started          *obs.Counter
	terminated       *obs.Counter
	evicted          *obs.Counter
	resumed          *obs.Counter
	decisions        *obs.Counter
	observed         *obs.Counter
	dedupedStarts    *obs.Counter
	dedupedObs       *obs.Counter
	batchRequests    *obs.Counter
	batchDecisions   *obs.Counter
	panics           *obs.Counter
	checkpointErrors *obs.Counter
	redirects        *obs.Counter
	adopted          *obs.Counter
	adoptErrors      *obs.Counter

	tombstonesReplicated *obs.Counter
	tombstoneRepErrors   *obs.Counter
	tombstonesReceived   *obs.Counter
	tombstonesAdopted    *obs.Counter
	tombstonesEvicted    *obs.Counter
	staleDropped         *obs.Counter

	latStart   *obs.Histogram
	latObserve *obs.Histogram
	latDecide  *obs.Histogram
	latBatch   *obs.Histogram

	// latDecideFSC/latDecideTree measure the controller Decide call alone
	// (no JSON, no checkpointing), labeled by the serving tier — the
	// first-class form of the fsc-vs-tree split the hit counters only count.
	latDecideFSC  *obs.Histogram
	latDecideTree *obs.Histogram
}

// newServerMetrics registers the server's instruments on reg. Registration
// is idempotent per (name, labels), so a registry shared across components
// is fine.
func newServerMetrics(reg *obs.Registry) *serverMetrics {
	lat := func(handler string) *obs.Histogram {
		return reg.Histogram("recoverd_request_duration_seconds",
			"Request latency in seconds by handler.",
			obs.DefLatencyBuckets, obs.Label{Key: "handler", Value: handler})
	}
	return &serverMetrics{
		reg:              reg,
		started:          reg.Counter("recoverd_episodes_started_total", "Episodes started."),
		terminated:       reg.Counter("recoverd_episodes_terminated_total", "Episodes ended by a terminate decision."),
		evicted:          reg.Counter("recoverd_episodes_evicted_total", "Idle episodes evicted by the TTL janitor."),
		resumed:          reg.Counter("recoverd_episodes_resumed_total", "Episodes resumed from checkpoints at startup."),
		decisions:        reg.Counter("recoverd_decisions_total", "Decisions computed (cached retries excluded)."),
		observed:         reg.Counter("recoverd_observations_total", "Observations applied."),
		dedupedStarts:    reg.Counter("recoverd_deduped_starts_total", "Duplicate episode starts answered from the idempotency key."),
		dedupedObs:       reg.Counter("recoverd_deduped_observations_total", "Retransmitted observations acknowledged without reapplying."),
		batchRequests:    reg.Counter("recoverd_batch_decide_requests_total", "Batch decide requests served."),
		batchDecisions:   reg.Counter("recoverd_batch_decisions_total", "Decisions made by the batch endpoint, one per belief received."),
		panics:           reg.Counter("recoverd_panics_total", "Handler panics converted to 500 responses."),
		checkpointErrors: reg.Counter("recoverd_checkpoint_errors_total", "Checkpoint save/delete failures."),
		redirects:        reg.Counter("recoverd_fleet_redirects_total", "Requests redirected to the owning fleet member."),
		adopted:          reg.Counter("recoverd_fleet_adopted_total", "Episodes adopted from down fleet members."),
		adoptErrors:      reg.Counter("recoverd_fleet_adopt_errors_total", "Episode adoption failures (store or replay)."),

		tombstonesReplicated: reg.Counter("recoverd_tombstones_replicated_total", "Terminal tombstones replicated to the ring successor."),
		tombstoneRepErrors:   reg.Counter("recoverd_tombstone_replication_errors_total", "Tombstone replications that exhausted their retries."),
		tombstonesReceived:   reg.Counter("recoverd_tombstones_received_total", "Replicated tombstones accepted from fleet peers."),
		tombstonesAdopted:    reg.Counter("recoverd_tombstones_adopted_total", "Tombstones adopted from down fleet members' stores."),
		tombstonesEvicted:    reg.Counter("recoverd_tombstones_evicted_total", "Tombstones evicted by the TTL janitor."),
		staleDropped:         reg.Counter("recoverd_fleet_stale_dropped_total", "Stale episodes/tombstones dropped on self mark-up reconcile."),
		latStart:             lat("start"),
		latObserve:           lat("observe"),
		latDecide:            lat("decide"),
		latBatch:             lat("batch"),
		latDecideFSC: reg.Histogram("recoverd_decision_duration_seconds",
			"Controller decision latency in seconds by serving tier.",
			obs.DefLatencyBuckets, obs.Label{Key: "tier", Value: controller.TierFSC}),
		latDecideTree: reg.Histogram("recoverd_decision_duration_seconds",
			"Controller decision latency in seconds by serving tier.",
			obs.DefLatencyBuckets, obs.Label{Key: "tier", Value: controller.TierTree}),
	}
}

// decideLatency picks the tier-labeled decision histogram.
func (m *serverMetrics) decideLatency(tier string) *obs.Histogram {
	if tier == controller.TierFSC {
		return m.latDecideFSC
	}
	return m.latDecideTree
}

// timed wraps a handler with a latency observation. It uses the real clock
// (not the test-injectable cfg.now), since latency is a measurement, not
// episode bookkeeping.
func timed(h *obs.Histogram, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		fn(w, r)
		h.Observe(time.Since(t0).Seconds())
	}
}
