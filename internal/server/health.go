package server

import (
	"net/http"
	"time"

	"bpomdp/internal/controller"
	"bpomdp/internal/obs"
)

// HealthView is returned by GET /v1/fleet/health: one node's full health
// snapshot, shaped so one scrape per node yields a whole-fleet picture —
// liveness view, open work, adoption/replication backlogs, and per-tier
// decision rates. The endpoint is served in every mode; Fleet is nil on a
// single-node server.
type HealthView struct {
	Node          string  `json:"node"`
	Draining      bool    `json:"draining"`
	UptimeSeconds float64 `json:"uptimeSeconds"`

	// OpenEpisodes and Tombstones are the node's live working set;
	// ReplicationInFlight is the tombstone-replication backlog.
	OpenEpisodes        int `json:"openEpisodes"`
	Tombstones          int `json:"tombstones"`
	ReplicationInFlight int `json:"replicationInFlight"`

	// Restore summarizes what New recovered from the checkpoint store.
	Restore HealthRestore `json:"restore"`
	// Decisions splits decision throughput and latency by serving tier.
	Decisions HealthDecisions `json:"decisions"`
	// Adoption and Replication are cumulative fleet-handoff counters.
	Adoption    HealthAdoption    `json:"adoption"`
	Replication HealthReplication `json:"replication"`

	// Fleet is this node's membership liveness view; nil outside fleet mode.
	Fleet *FleetView `json:"fleet,omitempty"`
}

// HealthRestore mirrors RestoreReport in scrape-friendly form.
type HealthRestore struct {
	Resumed    int `json:"resumed"`
	Tombstones int `json:"tombstones"`
	Failed     int `json:"failed"`
}

// HealthDecisions reports per-tier decision counts and mean latency.
type HealthDecisions struct {
	Total  uint64                `json:"total"`
	ByTier map[string]HealthTier `json:"byTier"`
}

// HealthTier is one serving tier's share of the decision load.
type HealthTier struct {
	Count uint64 `json:"count"`
	// RatePerSecond is Count over process uptime.
	RatePerSecond float64 `json:"ratePerSecond"`
	// MeanLatencySeconds is the tier's mean controller-decide latency.
	MeanLatencySeconds float64 `json:"meanLatencySeconds"`
}

// HealthAdoption reports cumulative episode-handoff counters.
type HealthAdoption struct {
	Episodes   uint64 `json:"episodes"`
	Tombstones uint64 `json:"tombstones"`
	Errors     uint64 `json:"errors"`
}

// HealthReplication reports cumulative tombstone-replication counters.
type HealthReplication struct {
	Sent     uint64 `json:"sent"`
	Received uint64 `json:"received"`
	Errors   uint64 `json:"errors"`
}

// tierHealth summarizes one tier histogram.
func tierHealth(h *obs.Histogram, uptime time.Duration) HealthTier {
	count, sum := h.Snapshot()
	t := HealthTier{Count: count}
	if secs := uptime.Seconds(); secs > 0 {
		t.RatePerSecond = float64(count) / secs
	}
	if count > 0 {
		t.MeanLatencySeconds = sum / float64(count)
	}
	return t
}

func (s *Server) handleFleetHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	open, tombs := s.table.size()
	draining := s.draining
	rep := s.restored
	failed := len(rep.Failed)
	s.mu.Unlock()

	uptime := time.Since(s.startAt)
	view := HealthView{
		Node:                s.node,
		Draining:            draining,
		UptimeSeconds:       uptime.Seconds(),
		OpenEpisodes:        open,
		Tombstones:          tombs,
		ReplicationInFlight: int(s.repInFlight.Load()),
		Restore: HealthRestore{
			Resumed:    rep.Resumed,
			Tombstones: rep.Tombstones,
			Failed:     failed,
		},
		Decisions: HealthDecisions{
			Total: s.m.decisions.Value(),
			ByTier: map[string]HealthTier{
				controller.TierFSC:  tierHealth(s.m.latDecideFSC, uptime),
				controller.TierTree: tierHealth(s.m.latDecideTree, uptime),
			},
		},
		Adoption: HealthAdoption{
			Episodes:   s.m.adopted.Value(),
			Tombstones: s.m.tombstonesAdopted.Value(),
			Errors:     s.m.adoptErrors.Value(),
		},
		Replication: HealthReplication{
			Sent:     s.m.tombstonesReplicated.Value(),
			Received: s.m.tombstonesReceived.Value(),
			Errors:   s.m.tombstoneRepErrors.Value(),
		},
	}
	if f := s.cfg.Fleet; f != nil {
		view.Fleet = &FleetView{
			Self:    f.Self,
			Version: f.Membership.Version(),
			Members: f.Membership.Snapshot(),
		}
	}
	writeJSON(w, http.StatusOK, view)
}
