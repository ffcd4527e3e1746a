// Package server exposes recovery controllers over HTTP — the deployable
// form of the framework. System monitors POST their outputs, the service
// replies with the next recovery action, and the episode ends when the
// controller decides to terminate.
//
// The API is JSON over HTTP:
//
//	GET    /healthz                        liveness
//	GET    /metrics                        plain-text counters
//	GET    /v1/model                       model summary (names, shapes)
//	POST   /v1/episodes                    start an episode  -> {"episodeId": ...};
//	                                       with a "first" observation it is
//	                                       applied as step 0 and the answer
//	                                       carries the next Decision too
//	GET    /v1/episodes/{id}               episode status (steps, open)
//	GET    /v1/episodes/{id}/decision      next action       -> Decision
//	POST   /v1/episodes/{id}/observations  report an observation -> the
//	                                       next Decision (one round trip
//	                                       per step)
//	GET    /v1/episodes/{id}/belief        current belief
//	DELETE /v1/episodes/{id}               abandon an episode
//	POST   /v1/decide/batch                decide for many beliefs at once
//	                                       (served only with NewBatchDecider)
//
// Controllers are stateful and single-threaded, so every episode gets its
// own controller from the configured factory, and requests within an
// episode are serialized.
//
// The batch endpoint is different: it is stateless — the caller supplies
// the beliefs, the server replies with one decision per belief, and no
// episode state is created or touched — which makes it naturally idempotent
// (a retry re-computes the identical answer) and lets campaign-scale
// clients amortize one HTTP round-trip and one batched tree expansion
// across many live episodes.
//
// # Failure model
//
// The service is built to survive its own failures as well as its clients':
//
//   - Crash-restart: with a Checkpointer configured, every state-changing
//     request persists an EpisodeState snapshot (id, step count, belief,
//     full action/observation history) before the response is sent. A
//     restarted server replays each history through a fresh controller from
//     the factory and resumes all open episodes under their original ids.
//   - Retried requests: decisions are cached per step, so a retried
//     GET .../decision or observation POST returns the identical bytes
//     without re-running the controller; observation POSTs carry a
//     client-generated stepIndex and duplicates are acknowledged without
//     being applied twice; episode starts carry a client-generated clientKey
//     and duplicates return the already-created episode. Terminal decisions
//     survive as tombstones so a client whose final response was lost can
//     still learn the outcome.
//   - Abandoned monitors: episodes idle longer than EpisodeTTL are evicted
//     (counted in recoverd_episodes_evicted_total) so a hung monitor cannot
//     leak controllers forever.
//   - Hostile input: request bodies are capped with http.MaxBytesReader (413
//     past the cap) and handler panics become 500s (counted in
//     recoverd_panics_total) rather than daemon crashes. A controller panic
//     fails only its own request: the episode's lock is released, so the
//     episode, the idle sweep and Close carry on.
package server

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bpomdp/internal/controller"
	"bpomdp/internal/obs"
	"bpomdp/internal/pomdp"
)

const (
	// maxBatchBeliefs caps the beliefs accepted per batch request.
	maxBatchBeliefs = 1024
	// retryAfterSeconds is the Retry-After hint returned with 429
	// responses when MaxEpisodes is hit.
	retryAfterSeconds = "1"
)

// Factory builds an independent controller and its initial belief for one
// episode.
type Factory func() (controller.Controller, pomdp.Belief, error)

// Config configures a Server.
type Config struct {
	// Model is the POMDP the controllers run on; used to resolve names in
	// the API. Required.
	Model *pomdp.POMDP
	// NewController builds one controller per episode. Required.
	NewController Factory
	// MaxEpisodes bounds concurrently open episodes (0 means 1024).
	MaxEpisodes int
	// Checkpointer, when non-nil, persists episode state across restarts:
	// snapshots are saved after every state-changing request and replayed
	// through fresh controllers by New.
	Checkpointer Checkpointer
	// EpisodeTTL evicts episodes idle longer than this (abandoned-monitor
	// GC). 0 disables eviction.
	EpisodeTTL time.Duration
	// TombstoneTTL evicts terminal tombstones older than this from memory
	// and the checkpoint store. 0 means EpisodeTTL governs tombstones too.
	// The effective TTL must cover ClientRetryBudget when both are set.
	TombstoneTTL time.Duration
	// ClientRetryBudget is the longest retry budget clients of this server
	// are configured with (client.RetryPolicy.Budget). When set, New rejects
	// an effective tombstone TTL below it: evicting a terminal decision
	// while a client may still be retrying its final request re-opens the
	// lost-final-decision window the tombstones exist to close.
	ClientRetryBudget time.Duration
	// MaxBodyBytes caps request body size (0 means 1 MiB).
	MaxBodyBytes int64
	// NewBatchDecider, when non-nil, enables POST /v1/decide/batch: it
	// builds the batch decision engines served to concurrent batch
	// requests (they are pooled and reused; each must be independent, and
	// none may mutate shared state such as an online-improved bound set).
	// When nil the endpoint is not registered and returns 404.
	NewBatchDecider func() (controller.BatchDecider, error)
	// Metrics, when non-nil, is the registry the server registers its
	// instruments on — share one registry to co-expose several components on
	// one /metrics page. Nil creates a private registry.
	Metrics *obs.Registry
	// Fleet, when non-nil, runs this server as one member of a sharded
	// recovery fleet: episode keys hash to owners, unowned requests are
	// redirected, and down members' episodes are adopted. See FleetConfig.
	Fleet *FleetConfig
	// SpanTrace, when non-nil, receives one JSONL obs.SpanRecord per traced
	// operation (handler serve, redirect hop, checkpoint write, adoption,
	// tombstone replication) for requests carrying an X-Bpomdp-Trace header.
	// The handler span that computed a fresh decision carries its
	// obs.DecisionRecord, with the bound-gap explanation when the episode
	// controllers collect DecisionStats.
	// Nil keeps the span layer entirely off the hot path: handlers are
	// registered unwrapped. The writer need not be synchronized.
	SpanTrace io.Writer
	// Node names this process in emitted spans. Defaults to Fleet.Self in
	// fleet mode, "recoverd" otherwise.
	Node string
	// now overrides time.Now in tests.
	now func() time.Time
}

// effectiveTombstoneTTL is the TTL actually applied to tombstones:
// TombstoneTTL, falling back to EpisodeTTL (0 disables eviction).
func (c *Config) effectiveTombstoneTTL() time.Duration {
	if c.TombstoneTTL > 0 {
		return c.TombstoneTTL
	}
	return c.EpisodeTTL
}

// Server is the HTTP recovery service. Create one with New and mount it as
// an http.Handler. Call Close on shutdown to stop the eviction janitor and
// write a final checkpoint of every open episode.
type Server struct {
	cfg Config
	mux *http.ServeMux

	mu sync.Mutex
	// table holds the live episodes and cached tombstones under mu.
	table  episodeTable
	closed bool
	// draining flips /healthz to 503 once graceful shutdown begins, so
	// load-balancers and fleet probes stop routing new work here while
	// in-flight requests finish. Set by BeginShutdown and by Close.
	draining bool

	janitorStop chan struct{}
	janitorDone chan struct{}

	// repWG tracks in-flight tombstone replication goroutines; repStop aborts
	// their backoff sleeps on Close.
	repWG   sync.WaitGroup
	repStop chan struct{}

	// restored is written by restore() during New and read by Restored() and
	// /metrics; it shares s.mu so those reads are race-clean even when a
	// server is scraped while still restoring (e.g. a future background
	// restore) or while tests poke at the report.
	restored RestoreReport

	// m holds the registry-backed instruments behind /metrics.
	m *serverMetrics
	// spans, when non-nil, receives distributed episode spans; node names
	// this process in them. startAt anchors the health view's uptime.
	spans   *obs.SpanWriter
	node    string
	startAt time.Time
	// repInFlight counts tombstone replication goroutines currently running
	// (the replication backlog surfaced by /v1/fleet/health and /metrics).
	repInFlight atomic.Int64

	// batchPool recycles batch deciders across /v1/decide/batch requests so
	// the steady state builds no controllers.
	batchPool sync.Pool
}

// episode is one live episode. Its mutex serializes controller access and
// protects the mutable bookkeeping fields; locked is the only code that takes
// it, and never while s.mu is held.
type episode struct {
	mu        sync.Mutex
	id        uint64
	ctrl      controller.Controller
	clientKey string
	steps     int
	history   []Step
	// lastDecision caches the decision computed for the current step so a
	// retried GET returns identical bytes without re-running the controller.
	// Invalidated by each applied observation.
	lastDecision *DecisionResponse
	// lastActive is the Unix-nano time of the last request served, atomic so
	// the idle sweep reads it under s.mu without taking ep.mu.
	lastActive atomic.Int64
}

// panicError is a controller panic caught by locked.
type panicError struct{ v any }

func (e *panicError) Error() string { return fmt.Sprintf("internal panic: %v", e.v) }

// locked runs f holding ep.mu, the one critical section on an episode. The
// lock is released however f ends, and a panic in f comes back as a
// *panicError: a controller bug fails its own request, not the episode.
func (ep *episode) locked(f func() error) (err error) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	defer func() {
		if v := recover(); v != nil {
			err = &panicError{v}
		}
	}()
	return f()
}

// tombstone remembers a terminated episode's final decision so a client
// whose response was lost by the network can retry its request — the
// decision GET, or the final observation POST that asked for the decision —
// and still learn the episode is over. The episode table caches it as a
// write-through copy of the checkpoint store's durable record: termination
// persists the record before the episode state is deleted, so the final
// decision survives a crash, a restart, and (via replication and adoption)
// the death of the whole member.
type tombstone struct {
	TombstoneState
	seq uint64 // insertion number; matches its live tombOrder reference
}

// RestoreFailure describes one checkpoint that could not be resumed.
type RestoreFailure struct {
	EpisodeID uint64
	// Name is set for corrupt stored entries (the quarantined file or log
	// record the store reported); empty for replay failures.
	Name string
	Err  error
}

// RestoreReport summarizes checkpoint recovery performed by New.
type RestoreReport struct {
	// Resumed counts episodes successfully rebuilt by history replay.
	Resumed int
	// Tombstones counts terminal tombstones restored from the store, so
	// clients retrying a final request across the restart still get their
	// terminal decision.
	Tombstones int
	// Failed lists episodes whose replay failed; their checkpoint files are
	// left in place for inspection but the episodes are not served.
	Failed []RestoreFailure
	// LoadErr records checkpoint files that could not be read at all.
	LoadErr error
}

var _ http.Handler = (*Server)(nil)

// New validates the configuration, restores any checkpointed episodes, and
// returns a ready-to-mount Server.
func New(cfg Config) (*Server, error) {
	if cfg.Model == nil {
		return nil, errors.New("server: nil model")
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	if cfg.NewController == nil {
		return nil, errors.New("server: nil controller factory")
	}
	if cfg.MaxEpisodes == 0 {
		cfg.MaxEpisodes = 1024
	}
	if cfg.MaxEpisodes < 0 {
		return nil, fmt.Errorf("server: negative episode cap %d", cfg.MaxEpisodes)
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.MaxBodyBytes < 0 {
		return nil, fmt.Errorf("server: negative body cap %d", cfg.MaxBodyBytes)
	}
	if cfg.EpisodeTTL < 0 {
		return nil, fmt.Errorf("server: negative episode TTL %v", cfg.EpisodeTTL)
	}
	if cfg.TombstoneTTL < 0 {
		return nil, fmt.Errorf("server: negative tombstone TTL %v", cfg.TombstoneTTL)
	}
	if cfg.ClientRetryBudget < 0 {
		return nil, fmt.Errorf("server: negative client retry budget %v", cfg.ClientRetryBudget)
	}
	if ttl := cfg.effectiveTombstoneTTL(); ttl > 0 && cfg.ClientRetryBudget > 0 && ttl < cfg.ClientRetryBudget {
		return nil, fmt.Errorf("server: tombstone TTL %v is below the client retry budget %v — a still-retrying client could lose its terminal decision", ttl, cfg.ClientRetryBudget)
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	idBase, err := validateFleet(cfg.Fleet)
	if err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if cfg.Node == "" {
		if cfg.Fleet != nil {
			cfg.Node = cfg.Fleet.Self
		} else {
			cfg.Node = "recoverd"
		}
	}
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		table:   newEpisodeTable(idBase),
		repStop: make(chan struct{}),
		m:       newServerMetrics(reg),
		node:    cfg.Node,
		startAt: time.Now(),
	}
	if cfg.SpanTrace != nil {
		s.spans = obs.NewSpanWriter(cfg.SpanTrace)
	}
	// The open-episode gauge is computed at scrape time from the episode
	// table, so /metrics and OpenEpisodes always agree — one source.
	reg.GaugeFunc("recoverd_episodes_open", "Currently open episodes.",
		func() float64 { return float64(s.OpenEpisodes()) })
	reg.GaugeFunc("recoverd_tombstone_replication_inflight",
		"Tombstone replication sends currently in flight.",
		func() float64 { return float64(s.repInFlight.Load()) })
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/model", s.handleModel)
	s.mux.HandleFunc("GET /v1/fleet/health", s.handleFleetHealth)
	s.mux.HandleFunc("POST /v1/episodes", timed(s.m.latStart, s.spanned(obs.SpanServerStart, s.handleStart)))
	s.mux.HandleFunc("GET /v1/episodes/{id}", s.spanned(obs.SpanServerStatus, s.handleStatus))
	s.mux.HandleFunc("GET /v1/episodes/{id}/decision", timed(s.m.latDecide, s.spanned(obs.SpanServerDecide, s.handleDecision)))
	s.mux.HandleFunc("POST /v1/episodes/{id}/observations", timed(s.m.latObserve, s.spanned(obs.SpanServerObserve, s.handleObservation)))
	s.mux.HandleFunc("GET /v1/episodes/{id}/belief", s.spanned(obs.SpanServerBelief, s.handleBelief))
	s.mux.HandleFunc("DELETE /v1/episodes/{id}", s.spanned(obs.SpanServerDelete, s.handleDelete))
	if cfg.NewBatchDecider != nil {
		s.mux.HandleFunc("POST /v1/decide/batch", timed(s.m.latBatch, s.handleBatchDecide))
	}
	if cfg.Fleet != nil {
		s.mux.HandleFunc("GET /v1/fleet", s.handleFleetView)
		s.mux.HandleFunc("POST /v1/fleet/members/{id}/down", s.handleFleetDown)
		s.mux.HandleFunc("POST /v1/fleet/members/{id}/up", s.handleFleetUp)
		s.mux.HandleFunc("POST /v1/fleet/tombstones", s.spanned(obs.SpanServerAccept, s.handleTombstoneReplica))
	}
	if cfg.Checkpointer != nil {
		s.restore()
		s.m.resumed.Add(uint64(s.restored.Resumed))
	}
	if cfg.EpisodeTTL > 0 || cfg.effectiveTombstoneTTL() > 0 {
		s.janitorStop = make(chan struct{})
		s.janitorDone = make(chan struct{})
		go s.janitor()
	}
	return s, nil
}

// restore rebuilds episodes from checkpoints by replaying each recorded
// history through a fresh controller from the factory, and reloads stored
// terminal tombstones so clients retrying a final request across the restart
// still get their terminal decision.
func (s *Server) restore() {
	states, corrupt, err := s.cfg.Checkpointer.LoadAll()
	tombs, tombCorrupt, tombErr := s.cfg.Checkpointer.LoadTombstones()
	var stale []uint64
	s.mu.Lock()
	s.restored.LoadErr = errors.Join(err, tombErr)
	for _, c := range append(corrupt, tombCorrupt...) {
		s.restored.Failed = append(s.restored.Failed, RestoreFailure{EpisodeID: c.EpisodeID, Name: c.Name, Err: c.Err})
	}
	// The cache may evict past its cap, so staleness is judged against the
	// loaded ids, not against what the table still holds.
	tombed := make(map[uint64]bool, len(tombs))
	for _, ts := range tombs {
		s.table.retire(ts, s.cfg.now())
		tombed[ts.EpisodeID] = true
		s.restored.Tombstones++
	}
	for _, st := range states {
		if tombed[st.EpisodeID] {
			// The previous process crashed between persisting the tombstone
			// (write-ahead) and deleting the episode record: the episode is
			// over; the tombstone wins and the stale record is cleaned up.
			stale = append(stale, st.EpisodeID)
			continue
		}
		ep, rerr := s.replay(st)
		if rerr == nil && !s.table.admit(ep) {
			rerr = fmt.Errorf("episode id or client key %q already restored", st.ClientKey)
		}
		if rerr != nil {
			// The record stays in the store for inspection, so a fresh
			// episode must not be minted over it.
			s.table.reserve(st.EpisodeID)
			s.restored.Failed = append(s.restored.Failed, RestoreFailure{EpisodeID: st.EpisodeID, Err: rerr})
			continue
		}
		s.restored.Resumed++
	}
	s.mu.Unlock()
	for _, id := range stale {
		s.deleteRecord("", id)
	}
}

// errNoStore is storedTombstones' answer when no checkpoint store is
// configured.
var errNoStore = errors.New("server: no checkpoint store")

// storedTombstones reads every tombstone in the checkpoint store, for the
// paths that fall back to it after New: a lookup the cache misses, the
// overflow sweep and a returning member's ownership check.
func (s *Server) storedTombstones() ([]TombstoneState, error) {
	if s.cfg.Checkpointer == nil {
		return nil, errNoStore
	}
	tombs, _, err := s.cfg.Checkpointer.LoadTombstones()
	return tombs, err
}

// loadStoredTombstone consults the checkpoint store for a tombstone the
// in-memory cache no longer holds (evicted past the cap). Lookups by unknown
// id are rare, so a store scan here is acceptable.
func (s *Server) loadStoredTombstone(id uint64) (TombstoneState, bool) {
	tombs, err := s.storedTombstones()
	if err != nil {
		return TombstoneState{}, false
	}
	for _, ts := range tombs {
		if ts.EpisodeID == id {
			return ts, true
		}
	}
	return TombstoneState{}, false
}

// replay builds a fresh controller and feeds it the checkpointed history,
// verifying the resulting belief against the snapshot.
func (s *Server) replay(st EpisodeState) (*episode, error) {
	ctrl, initial, err := s.cfg.NewController()
	if err != nil {
		return nil, fmt.Errorf("controller factory: %w", err)
	}
	if err := ctrl.Reset(initial); err != nil {
		return nil, fmt.Errorf("reset: %w", err)
	}
	for i, step := range st.History {
		if err := ctrl.Observe(step.Action, step.Observation); err != nil {
			return nil, fmt.Errorf("replay step %d (action %d, obs %d): %w", i, step.Action, step.Observation, err)
		}
	}
	if len(st.Belief) > 0 {
		got := ctrl.Belief()
		if len(got) != len(st.Belief) {
			return nil, fmt.Errorf("replayed belief has %d states, checkpoint %d — model changed under the checkpoint", len(got), len(st.Belief))
		}
		for i := range got {
			if math.Abs(got[i]-st.Belief[i]) > 1e-9 {
				return nil, fmt.Errorf("replayed belief diverges from checkpoint at state %d (%v vs %v)", i, got[i], st.Belief[i])
			}
		}
	}
	ep := &episode{
		id:        st.EpisodeID,
		ctrl:      ctrl,
		clientKey: st.ClientKey,
		steps:     st.Steps,
		history:   append([]Step(nil), st.History...),
	}
	s.touch(ep)
	return ep, nil
}

// Restored reports what New recovered from the checkpointer. The returned
// report is a snapshot: its Failed slice is copied, so callers may inspect it
// without holding any server lock.
func (s *Server) Restored() RestoreReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep := s.restored
	rep.Failed = append([]RestoreFailure(nil), s.restored.Failed...)
	return rep
}

// ServeHTTP implements http.Handler. Handler panics are converted into 500
// responses and counted rather than crashing the daemon.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil && rec != http.ErrAbortHandler {
			s.m.panics.Inc()
			writeError(w, http.StatusInternalServerError, fmt.Errorf("internal panic: %v", rec))
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// Close stops the eviction janitor and, when a checkpointer is configured,
// writes a final snapshot of every open episode so a restart resumes them.
// It is idempotent and safe to call while requests are still draining,
// though callers should prefer http.Server.Shutdown first.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.draining = true
	eps := s.table.live()
	s.mu.Unlock()

	if s.janitorStop != nil {
		close(s.janitorStop)
		<-s.janitorDone
	}
	// Abort replication backoff sleeps and wait for in-flight senders; the
	// closed flag (set above) stops new ones from spawning.
	close(s.repStop)
	s.repWG.Wait()
	if s.cfg.Checkpointer == nil {
		return nil
	}
	var firstErr error
	for _, ep := range eps {
		st, err := ep.snapshot()
		if err == nil {
			err = s.save("", st)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// janitor periodically evicts idle episodes and expired tombstones.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	shortest := s.cfg.EpisodeTTL
	if t := s.cfg.effectiveTombstoneTTL(); shortest <= 0 || (t > 0 && t < shortest) {
		shortest = t
	}
	interval := shortest / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-t.C:
			s.Sweep()
		}
	}
}

// Sweep evicts episodes idle longer than EpisodeTTL and tombstones older
// than the effective tombstone TTL, returning how many episodes were
// evicted. Tombstone eviction is store-backed: the durable record is deleted
// with the cache entry, and when the cache has overflowed its cap the store
// itself is scanned so evicted-from-memory tombstones still expire. The
// janitor calls Sweep periodically; tests may call it directly.
func (s *Server) Sweep() int {
	now := s.cfg.now()
	var expired []*episode
	var expiredTombs []uint64
	scanStore := false
	tombTTL := s.cfg.effectiveTombstoneTTL()

	s.mu.Lock()
	if s.cfg.EpisodeTTL > 0 {
		cutoff := now.Add(-s.cfg.EpisodeTTL).UnixNano()
		expired = s.table.dropWhere(func(ep *episode) bool { return ep.lastActive.Load() < cutoff })
	}
	tombCutoff := now.Add(-tombTTL).UnixNano()
	if tombTTL > 0 {
		expiredTombs = s.table.forgetWhere(func(_ uint64, tb *tombstone) bool { return tb.TerminatedAtUnixNano < tombCutoff })
		scanStore = s.table.overflowed()
	}
	s.mu.Unlock()

	for _, ep := range expired {
		s.m.evicted.Inc()
		s.deleteRecord("", ep.id)
	}
	if scanStore {
		// Cache overflow means the store may hold tombstones the in-memory
		// sweep above never saw; expire them straight from the store.
		if tombs, err := s.storedTombstones(); err == nil {
			for _, ts := range tombs {
				if _, tb := s.cached(ts.EpisodeID); tb == nil && ts.TerminatedAtUnixNano < tombCutoff {
					expiredTombs = append(expiredTombs, ts.EpisodeID)
				}
			}
		}
	}
	for _, id := range expiredTombs {
		s.m.tombstonesEvicted.Inc()
		_ = s.storeWrite("", obs.SpanOpDelete, id, func(c Checkpointer) error { return c.DeleteTombstone(id) })
	}
	return len(expired)
}

// OpenEpisodes reports the number of live episodes (for tests and metrics).
func (s *Server) OpenEpisodes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	open, _ := s.table.size()
	return open
}

// API payloads.
type (
	// StartRequest is the optional body of POST /v1/episodes. ClientKey is a
	// client-generated idempotency key: starting twice with the same key
	// returns the same episode instead of creating a duplicate.
	StartRequest struct {
		ClientKey string `json:"clientKey,omitempty"`
		// First, when set, is the episode's first observation — the initial
		// monitor sweep — applied as step 0, so the start is answered
		// with the decision for step 1 as well as the id. A
		// duplicate start is that observation's retransmit.
		First *Step `json:"first,omitempty"`
	}
	// StartResponse is returned by POST /v1/episodes. Decision answers a
	// start that carried a first observation.
	StartResponse struct {
		EpisodeID uint64            `json:"episodeId"`
		Decision  *DecisionResponse `json:"decision,omitempty"`
	}
	// StatusResponse is returned by GET /v1/episodes/{id}.
	StatusResponse struct {
		EpisodeID uint64 `json:"episodeId"`
		Steps     int    `json:"steps"`
		Open      bool   `json:"open"`
	}
	// DecisionResponse is returned by GET .../decision and by
	// POST .../observations.
	DecisionResponse struct {
		Action     int     `json:"action"`
		ActionName string  `json:"actionName"`
		Terminate  bool    `json:"terminate"`
		Value      float64 `json:"value"`
	}
	// ObservationRequest is accepted by POST .../observations. Either the
	// numeric indices or the names may be used; names win when both are set.
	// StepIndex, when set, is the client's count of observations already
	// applied: a request with StepIndex below the server's count is a
	// retransmit and is acknowledged without being applied again. Either
	// way the answer is the DecisionResponse that GET .../decision would
	// return for the episode's current step; a retransmit of an episode's
	// final observation gets its terminal decision from the tombstone.
	ObservationRequest struct {
		Action          int    `json:"action"`
		Observation     int    `json:"observation"`
		ActionName      string `json:"actionName,omitempty"`
		ObservationName string `json:"observationName,omitempty"`
		StepIndex       *int   `json:"stepIndex,omitempty"`
	}
	// BeliefResponse is returned by GET .../belief.
	BeliefResponse struct {
		Belief []float64 `json:"belief"`
	}
	// ModelResponse is returned by GET /v1/model.
	ModelResponse struct {
		States       []string `json:"states"`
		Actions      []string `json:"actions"`
		Observations []string `json:"observations"`
	}
	// ErrorResponse is the uniform error body.
	ErrorResponse struct {
		Error string `json:"error"`
	}
)

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		// 503 tells load-balancers and fleet probes to drain: new starts
		// would land on a process about to stop serving them.
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("draining\n"))
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

// BeginShutdown marks the server as draining: /healthz answers 503 from the
// first call on, while every other endpoint keeps serving. Call it before
// http.Server.Shutdown so balancers stop sending new episodes during the
// drain window; Close implies it. Idempotent.
func (s *Server) BeginShutdown() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.m.reg.WritePrometheus(w)
}

// Metrics returns the registry the server's instruments live on.
func (s *Server) Metrics() *obs.Registry { return s.m.reg }

func (s *Server) handleModel(w http.ResponseWriter, _ *http.Request) {
	m := s.cfg.Model
	resp := ModelResponse{
		States:       make([]string, m.NumStates()),
		Actions:      make([]string, m.NumActions()),
		Observations: make([]string, m.NumObservations()),
	}
	for i := range resp.States {
		resp.States[i] = m.M.StateName(i)
	}
	for i := range resp.Actions {
		resp.Actions[i] = m.M.ActionName(i)
	}
	for i := range resp.Observations {
		resp.Observations[i] = m.ObsName(i)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStart(w http.ResponseWriter, r *http.Request) {
	var req StartRequest
	if r.Body != nil && r.ContentLength != 0 && !s.decodeBody(w, r, &req, nil, "start request") {
		return
	}

	if s.fleetEnabled() && req.ClientKey != "" {
		// Route by key before anything else: a non-owner redirects, the owner
		// lazily adopts the key from down members so the dedupe below finds
		// an episode started on a now-dead member.
		if s.fleetStart(w, r, req.ClientKey) {
			return
		}
	}
	// A fused start is clientKey dedupe plus the observation at stepIndex 0.
	var first *ObservationRequest
	if req.First != nil {
		step := 0
		first = &ObservationRequest{Action: req.First.Action, Observation: req.First.Observation, StepIndex: &step}
	}

	// A key whose episode already terminated answers with the original id
	// (not a fresh episode), which routes the client's retried final request
	// to the tombstone, so the terminal decision is replayed rather than
	// recomputed.
	s.mu.Lock()
	if id, ok := s.table.keyed(req.ClientKey); ok {
		ep, tb := s.table.find(id)
		s.mu.Unlock()
		s.startDeduped(w, id, ep, tb, first)
		return
	}
	if open, _ := s.table.size(); open >= s.cfg.MaxEpisodes {
		s.mu.Unlock()
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeError(w, http.StatusTooManyRequests, fmt.Errorf("episode cap %d reached", s.cfg.MaxEpisodes))
		return
	}
	id := s.table.allocate()
	s.mu.Unlock()

	ctrl, initial, err := s.cfg.NewController()
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("controller factory: %w", err))
		return
	}
	if err := ctrl.Reset(initial); err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("reset: %w", err))
		return
	}
	ep := &episode{id: id, ctrl: ctrl, clientKey: req.ClientKey}
	s.touch(ep)

	var (
		resp   = StartResponse{EpisodeID: id}
		status = http.StatusInternalServerError
	)
	if first != nil {
		resp.Decision, status, err = s.observe(w, id, ep, nil, first, true)
	} else if !s.admit(ep) {
		err = errStartRaced
	} else if s.cfg.Checkpointer != nil {
		var st EpisodeState
		if st, err = ep.snapshot(); err == nil {
			_ = s.save(req.ClientKey, st)
		}
	}
	if errors.Is(err, errStartRaced) {
		// A concurrent duplicate won the race while the factory ran — or even
		// terminated already, leaving only a tombstone. The allocator never
		// hands out a taken id, so the key is what collided.
		s.mu.Lock()
		id, _ := s.table.keyed(req.ClientKey)
		ep, tb := s.table.find(id)
		s.mu.Unlock()
		s.startDeduped(w, id, ep, tb, first)
		return
	}
	if err != nil {
		s.fail(w, status, err)
		return
	}
	writeJSON(w, http.StatusCreated, resp)
}

// errStartRaced is observe's answer when the fresh episode it applied a
// first observation to cannot be admitted: a concurrent start with the same
// key was admitted first.
var errStartRaced = errors.New("server: a concurrent start took the client key")

// admit registers the fresh episode ep as live and counts it started. It
// reports false when a concurrent start with the same key got there first.
func (s *Server) admit(ep *episode) bool {
	s.mu.Lock()
	ok := s.table.admit(ep)
	s.mu.Unlock()
	if ok {
		s.m.started.Inc()
	}
	return ok
}

// startDeduped answers a start whose key already names episode id, live as
// ep or terminated as tb, with that id. A fused start's first observation
// goes to that episode as a retransmit of step 0 (or as step 0 itself, on
// an episode opened by a plain start and not yet observed), and its answer
// is the decision an observation retransmit gets.
func (s *Server) startDeduped(w http.ResponseWriter, id uint64, ep *episode, tb *tombstone, first *ObservationRequest) {
	s.m.dedupedStarts.Inc()
	resp := StartResponse{EpisodeID: id}
	if first != nil {
		var (
			status int
			err    error
		)
		if resp.Decision, status, err = s.observe(w, id, ep, tb, first, false); err != nil {
			s.fail(w, status, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// lookup resolves an episode-scoped request's {id} to the live episode or,
// once the episode has terminated, its tombstone. A miss in memory takes the
// fleet path (redirect to the owner, or adopt from a down member and look
// again) and then falls back to the checkpoint store, which outlives the
// tombstone cache's cap. When ok is false the response has been written: 400
// for a malformed id, 307 to the owner, or 404 when neither exists. When ok
// is true exactly one of ep and tb is non-nil.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (id uint64, ep *episode, tb *tombstone, ok bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad episode id: %w", err))
		return 0, nil, nil, false
	}
	ep, tb = s.cached(id)
	if ep == nil && tb == nil {
		retry, handled := s.fleetEpisodeMiss(w, r)
		if handled {
			return 0, nil, nil, false
		}
		if retry {
			ep, tb = s.cached(id)
		}
	}
	if ep == nil && tb == nil {
		// The cache may have evicted the tombstone past its cap; the store is
		// the source of truth. Serve the loaded record itself rather than
		// re-reading the cache, which guarantees nothing about keeping it.
		if ts, found := s.loadStoredTombstone(id); found {
			s.mu.Lock()
			tb = s.table.retire(ts, s.cfg.now())
			s.mu.Unlock()
		}
	}
	if ep == nil && tb == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("episode %d not found", id))
		return 0, nil, nil, false
	}
	return id, ep, tb, true
}

// cached reads the episode table for id: the live episode, else its cached
// tombstone.
func (s *Server) cached(id uint64) (*episode, *tombstone) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.table.find(id)
}

// episode is lookup for handlers that only serve live episodes: a
// tombstoned id answers 404.
func (s *Server) episode(w http.ResponseWriter, r *http.Request) (uint64, *episode, bool) {
	id, ep, _, ok := s.lookup(w, r)
	if ok && ep == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("episode %d not found", id))
		return 0, nil, false
	}
	return id, ep, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id, ep, _, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if ep == nil {
		writeJSON(w, http.StatusOK, StatusResponse{EpisodeID: id, Open: false})
		return
	}
	var steps int
	if err := ep.locked(func() error { steps = ep.steps; return nil }); err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, StatusResponse{EpisodeID: id, Steps: steps, Open: true})
}

func (s *Server) handleDecision(w http.ResponseWriter, r *http.Request) {
	id, ep, tb, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if ep == nil {
		// The terminal decision was already computed; the client's copy was
		// lost in transit. Re-serve it.
		writeJSON(w, http.StatusOK, tb.Final)
		return
	}
	resp, err := s.decide(w, id, ep)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// decide returns the decision for ep's current step: the cached one when
// this step was already decided, else a fresh one from the controller,
// recorded in the per-tier latency histogram and, on a traced request,
// explained on the handler span w. A terminal decision retires the episode
// through retire. GET .../decision, an observation and a fused start all
// decide through here.
func (s *Server) decide(w http.ResponseWriter, id uint64, ep *episode) (*DecisionResponse, error) {
	var (
		resp  DecisionResponse
		fresh bool
		steps int
	)
	err := ep.locked(func() error {
		if ep.lastDecision != nil {
			resp = *ep.lastDecision
			return nil
		}
		t0 := time.Now()
		d, err := ep.ctrl.Decide()
		if err != nil {
			return err
		}
		// Per-tier decision latency: the controller records which tier served
		// (an always-on constant store, unlike full stats collection).
		tier := controller.TierTree
		if tsrc, ok := ep.ctrl.(controller.TierSource); ok {
			if lt := tsrc.LastTier(); lt != "" {
				tier = lt
			}
		}
		s.m.decideLatency(tier).Observe(time.Since(t0).Seconds())
		resp = s.decisionResponse(d)
		if sw, ok := w.(*spanResponseWriter); ok {
			// A traced request: the spanned wrapper puts the tier and the
			// explanation on the handler span. Built under ep.mu, since the
			// stats buffers are reused by the episode's next decision.
			sw.tier = tier
			sw.decision = explain(ep, d, resp.ActionName)
		}
		cached := resp
		ep.lastDecision = &cached
		fresh, steps = true, ep.steps
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.touch(ep)
	if fresh {
		s.m.decisions.Inc()
		if resp.Terminate {
			s.m.terminated.Inc()
			_ = s.retire(TombstoneState{EpisodeID: id, ClientKey: ep.clientKey, Steps: steps, Final: resp,
				TerminatedAtUnixNano: s.cfg.now().UnixNano()}, true)
		}
	}
	return &resp, nil
}

// retire makes ts its episode's last word, whether decided here (local) or
// taken over from a peer: save the tombstone write-ahead, retire it in the
// table, delete the record of any live copy that dropped, and replicate a
// local decision. A crash after the save leaves both records stored, and
// restore and adoption let the tombstone win; the reverse order would open a
// window where the final decision exists nowhere durable. It returns the
// save's error.
func (s *Server) retire(ts TombstoneState, local bool) error {
	id := ts.EpisodeID
	err := s.storeWrite(ts.ClientKey, obs.SpanOpTombstone, id, func(c Checkpointer) error { return c.SaveTombstone(ts) })
	s.mu.Lock()
	live, _ := s.table.find(id)
	s.table.retire(ts, s.cfg.now())
	s.mu.Unlock()
	if live != nil {
		_ = s.deleteRecord(ts.ClientKey, id)
	}
	if local {
		s.replicateTombstone(ts)
	}
	return err
}

// decisionResponse renders a controller decision for the wire. A terminate
// names an action only when it carries one.
func (s *Server) decisionResponse(d controller.Decision) DecisionResponse {
	resp := DecisionResponse{Action: d.Action, Terminate: d.Terminate, Value: d.Value}
	if !d.Terminate || d.Action >= 0 {
		resp.ActionName = s.cfg.Model.M.ActionName(d.Action)
	}
	return resp
}

// explain builds the span's account of the decision d just computed for
// ep; the caller holds ep.mu. The bound-gap explanation is attached only
// when the controller collects stats.
func explain(ep *episode, d controller.Decision, actionName string) *obs.DecisionRecord {
	rec := &obs.DecisionRecord{
		Step:       ep.steps,
		Action:     d.Action,
		ActionName: actionName,
		Terminate:  d.Terminate,
		Value:      d.Value,
	}
	if ss, ok := ep.ctrl.(controller.StatsSource); ok && ss.StatsEnabled() {
		st := ss.DecisionStats()
		rec.Action = st.Action
		rec.Explanation = &obs.Explanation{
			QValues:       append([]float64(nil), st.QValues...),
			LeafBound:     st.LeafBound,
			BoundGap:      st.BoundGap,
			BeliefEntropy: st.BeliefEntropy,
			TreeNodes:     st.TreeNodes,
			LeafEvals:     st.LeafEvals,
			SlabPasses:    st.SlabPasses,
			SetSize:       st.SetSize,
			SetEvictions:  st.SetEvictions,
		}
	}
	return rec
}

func (s *Server) handleObservation(w http.ResponseWriter, r *http.Request) {
	id, ep, tb, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req ObservationRequest
	if !s.decodeBody(w, r, &req, nil, "observation") {
		return
	}
	d, status, err := s.observe(w, id, ep, tb, &req, false)
	if err != nil {
		s.fail(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, d)
}

// observe applies req to episode id — live as ep, or terminated as tb — and
// returns the decision to answer with, the one for the episode's new step. A
// request whose stepIndex is below the episode's count is a retransmit: it
// is acknowledged without being applied again and gets the decision cached
// for the current step. On a terminated episode a retransmit of its final
// observation gets the terminal decision from the tombstone. On failure the
// returned status is the one to answer with.
//
// The observation endpoint and the fused start both observe through here.
// fresh marks the fused start's new episode, not yet in the table: it is
// admitted once its first observation is applied, so a refused observation
// leaves no episode behind, and errStartRaced means a concurrent start with
// the same key was admitted first.
func (s *Server) observe(w http.ResponseWriter, id uint64, ep *episode, tb *tombstone, req *ObservationRequest, fresh bool) (*DecisionResponse, int, error) {
	if ep == nil {
		// The episode is over. A retransmit of its final observation whose
		// first answer — the terminal decision — was lost gets that decision
		// again; any other observation is for an episode that is gone.
		if tb != nil && (req.StepIndex == nil || *req.StepIndex < tb.Steps) {
			final := tb.Final
			return &final, 0, nil
		}
		return nil, http.StatusNotFound, fmt.Errorf("episode %d not found", id)
	}
	action, observation := req.Action, req.Observation
	if req.ActionName != "" {
		a, err := s.lookupAction(req.ActionName)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		action = a
	}
	if req.ObservationName != "" {
		o, err := s.lookupObservation(req.ObservationName)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		observation = o
	}

	var (
		st      EpisodeState
		applied bool
	)
	status := http.StatusInternalServerError
	err := ep.locked(func() error {
		if req.StepIndex != nil {
			switch {
			case *req.StepIndex < ep.steps:
				// Retransmit of an already-applied observation: acknowledge
				// without applying it twice.
				return nil
			case *req.StepIndex > ep.steps:
				status = http.StatusConflict
				return fmt.Errorf("observation step %d out of order (episode has %d)", *req.StepIndex, ep.steps)
			}
		}
		if err := ep.ctrl.Observe(action, observation); err != nil {
			if errors.Is(err, pomdp.ErrImpossibleObservation) {
				status = http.StatusUnprocessableEntity
			}
			return err
		}
		ep.steps++
		ep.history = append(ep.history, Step{Action: action, Observation: observation})
		ep.lastDecision = nil
		applied = true
		if s.cfg.Checkpointer != nil {
			st = ep.snapshotLocked()
		}
		return nil
	})
	if err != nil {
		return nil, status, err
	}
	s.touch(ep)
	if applied {
		if fresh && !s.admit(ep) {
			return nil, 0, errStartRaced
		}
		s.m.observed.Inc()
		_ = s.save(ep.clientKey, st)
	} else {
		s.m.dedupedObs.Inc()
	}
	d, err := s.decide(w, id, ep)
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	return d, 0, nil
}

func (s *Server) handleBelief(w http.ResponseWriter, r *http.Request) {
	_, ep, ok := s.episode(w, r)
	if !ok {
		return
	}
	var b pomdp.Belief
	if err := ep.locked(func() error { b = ep.ctrl.Belief(); return nil }); err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, BeliefResponse{Belief: b})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id, ep, ok := s.episode(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	s.table.drop(id)
	s.mu.Unlock()
	_ = s.deleteRecord(ep.clientKey, id)
	w.WriteHeader(http.StatusNoContent)
}

// snapshotLocked captures the episode's serializable state. Caller holds
// ep.mu.
func (ep *episode) snapshotLocked() EpisodeState {
	return EpisodeState{
		EpisodeID:  ep.id,
		Controller: ep.ctrl.Name(),
		ClientKey:  ep.clientKey,
		Steps:      ep.steps,
		Belief:     ep.ctrl.Belief(),
		History:    append([]Step(nil), ep.history...),
	}
}

// snapshot captures ep's serializable state under its lock.
func (ep *episode) snapshot() (st EpisodeState, err error) {
	err = ep.locked(func() error { st = ep.snapshotLocked(); return nil })
	return st, err
}

// touch records a request served on ep, for the idle sweep.
func (s *Server) touch(ep *episode) { ep.lastActive.Store(s.cfg.now().UnixNano()) }

// fail answers a request whose locked section failed, with status. A caught
// controller panic answers 500 and counts in recoverd_panics_total, as a
// handler panic does.
func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	var p *panicError
	if errors.As(err, &p) {
		s.m.panics.Inc()
		status = http.StatusInternalServerError
	}
	writeError(w, status, err)
}

// storeWrite is the server's one path for mutating its checkpoint store, and
// does nothing without one. A failed write is counted in
// recoverd_checkpoint_errors_total and returned; request paths treat it as
// best-effort. Under a trace id (the janitor, restore and Close pass none)
// the write is a server.checkpoint span with op.
func (s *Server) storeWrite(trace, op string, id uint64, write func(Checkpointer) error) error {
	if s.cfg.Checkpointer == nil {
		return nil
	}
	t0 := s.spanStart()
	err := write(s.cfg.Checkpointer)
	if err != nil {
		s.m.checkpointErrors.Inc()
	}
	if !t0.IsZero() {
		rec := &obs.SpanRecord{TraceID: trace, Kind: obs.SpanServerCheckpoint, Op: op, Episode: id,
			Start: t0.UnixNano(), Duration: time.Since(t0).Nanoseconds()}
		if err != nil {
			rec.Err = err.Error()
		}
		s.emitSpan(rec)
	}
	return err
}

// save persists an episode snapshot.
func (s *Server) save(trace string, st EpisodeState) error {
	return s.storeWrite(trace, obs.SpanOpSave, st.EpisodeID, func(c Checkpointer) error { return c.Save(st) })
}

// deleteRecord deletes an episode's snapshot record.
func (s *Server) deleteRecord(trace string, id uint64) error {
	return s.storeWrite(trace, obs.SpanOpDelete, id, func(c Checkpointer) error { return c.Delete(id) })
}

// decodeBody decodes r's JSON body into v, capped at MaxBodyBytes; sc is
// the scratch a *BatchDecideRequest decodes into (nil for fresh memory). On
// failure it answers 413 for a body over the cap, else 400, with what
// naming the body in the error, and returns false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any, sc *DecodeScratch, what string) bool {
	err := readJSON(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), v, sc)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("%s body exceeds %d bytes", what, tooLarge.Limit))
	} else {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode %s: %w", what, err))
	}
	return false
}

func (s *Server) lookupAction(name string) (int, error) {
	for a := 0; a < s.cfg.Model.NumActions(); a++ {
		if s.cfg.Model.M.ActionName(a) == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown action %q", name)
}

func (s *Server) lookupObservation(name string) (int, error) {
	for o := 0; o < s.cfg.Model.NumObservations(); o++ {
		if s.cfg.Model.ObsName(o) == name {
			return o, nil
		}
	}
	return 0, fmt.Errorf("unknown observation %q", name)
}

// writeJSON answers status with v's JSON encoding and the Encoder's
// trailing newline. v is encoded before anything is sent, so a value that
// cannot be encoded (a non-finite float) answers 500 instead.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := getBody()
	b, err := appendJSON((*buf)[:0], v)
	b = append(b, '\n')
	defer putBody(buf, b)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("encode response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(b) // the status is out; a failed write has no one to tell
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}
