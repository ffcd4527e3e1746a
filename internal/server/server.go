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
//	POST   /v1/episodes                    start an episode  -> {"episodeId": ...}
//	GET    /v1/episodes/{id}               episode status (steps, open)
//	GET    /v1/episodes/{id}/decision      next action       -> Decision
//	POST   /v1/episodes/{id}/observations  report an observation; with
//	                                       "decide": true the answer is the
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
//     GET .../decision (or a retried observation POST with decide set)
//     returns the identical bytes without re-running the controller;
//     observation POSTs carry a client-generated stepIndex and duplicates
//     are acknowledged without being applied twice; episode starts carry a
//     client-generated clientKey and duplicates return the already-created
//     episode. Terminal decisions survive as tombstones so a client whose
//     final response was lost can still learn the outcome.
//   - Abandoned monitors: episodes idle longer than EpisodeTTL are evicted
//     (counted in recoverd_episodes_evicted_total) so a hung monitor cannot
//     leak controllers forever.
//   - Hostile input: request bodies are capped with http.MaxBytesReader and
//     handler panics become 500s (counted in recoverd_panics_total) rather
//     than daemon crashes.
package server

import (
	"encoding/json"
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
	// MaxBatchBeliefs caps the beliefs accepted per batch request
	// (0 means 1024).
	MaxBatchBeliefs int
	// RetryAfter is the Retry-After hint returned with 429 responses when
	// MaxEpisodes is hit (0 means 1 second).
	RetryAfter time.Duration
	// Metrics, when non-nil, is the registry the server registers its
	// instruments on — share one registry to co-expose several components on
	// one /metrics page. Nil creates a private registry.
	Metrics *obs.Registry
	// Fleet, when non-nil, runs this server as one member of a sharded
	// recovery fleet: episode keys hash to owners, unowned requests are
	// redirected, and down members' episodes are adopted. See FleetConfig.
	Fleet *FleetConfig
	// EpisodeIDBase offsets freshly assigned episode ids. In fleet mode New
	// derives it from the member's index (disjoint 48-bit ranges per member,
	// see EpisodeIDBaseFor) so adopted episodes keep their original ids
	// without colliding with the adopter's allocator. Leave 0 outside fleets.
	EpisodeIDBase uint64
	// DecisionTrace, when non-nil, receives one structured JSONL
	// obs.DecisionRecord per freshly computed decision (cached retries are
	// not re-recorded). When the episode controllers collect DecisionStats,
	// records carry the full bound-gap explanation. The writer need not be
	// synchronized; records are serialized internally.
	DecisionTrace io.Writer
	// SpanTrace, when non-nil, receives one JSONL obs.SpanRecord per traced
	// operation (handler serve, redirect hop, checkpoint write, adoption,
	// tombstone replication) for requests carrying an X-Bpomdp-Trace header.
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

	mu         sync.Mutex
	episodes   map[uint64]*episode
	byKey      map[string]uint64 // clientKey -> open episode id
	tombstones map[uint64]*tombstone
	tombByKey  map[string]uint64 // clientKey -> terminated episode id
	// tombOrder is the tombstone cache's eviction queue, oldest insertion
	// first. A reference is live while its cache entry still carries the
	// reference's seq; entries deleted by Sweep or reconcileOwnership, or
	// re-inserted under a new seq, leave dead references behind that
	// eviction skips and compaction drops.
	tombOrder []tombRef
	tombSeq   uint64
	// tombOverflow is set when the in-memory tombstone cache evicted past its
	// cap; it tells Sweep that the store may hold expired tombstones the
	// cache no longer sees.
	tombOverflow bool
	nextID       uint64
	closed       bool
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
	// trace, when non-nil, receives structured decision records.
	trace *obs.TraceWriter
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
// protects the mutable bookkeeping fields.
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
	lastActive   time.Time
}

// tombstone remembers a terminated episode's final decision so a client
// whose response was lost by the network can retry its request — the
// decision GET, or the final observation POST that asked for the decision —
// and still learn the episode is over. The in-memory table is a write-through cache over the
// checkpoint store's durable TombstoneState records: termination persists
// the record before the episode state is deleted, so the final decision
// survives a crash, a restart, and (via replication and adoption) the death
// of the whole member.
type tombstone struct {
	final DecisionResponse
	key   string
	steps int
	at    time.Time
	seq   uint64 // insertion number; matches its live tombOrder reference
}

// tombRef is one tombOrder entry: the cached tombstone of episode id as
// inserted with sequence number seq.
type tombRef struct{ id, seq uint64 }

// maxTombstones caps the in-memory tombstone cache; past the cap the entry
// inserted longest ago is evicted. Cache eviction is memory-only — the
// durable store record stays until its TTL expires, and a request for an
// evicted id falls back to a store lookup — so evicting in insertion order
// rather than termination-time order loses nothing.
const maxTombstones = 4096

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
	if cfg.RetryAfter == 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.MaxBatchBeliefs == 0 {
		cfg.MaxBatchBeliefs = 1024
	}
	if cfg.MaxBatchBeliefs < 0 {
		return nil, fmt.Errorf("server: negative batch belief cap %d", cfg.MaxBatchBeliefs)
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	if err := validateFleet(&cfg); err != nil {
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
		cfg:        cfg,
		mux:        http.NewServeMux(),
		episodes:   make(map[uint64]*episode),
		byKey:      make(map[string]uint64),
		tombstones: make(map[uint64]*tombstone),
		tombByKey:  make(map[string]uint64),
		repStop:    make(chan struct{}),
		nextID:     cfg.EpisodeIDBase,
		m:          newServerMetrics(reg),
		node:       cfg.Node,
		startAt:    time.Now(),
	}
	if cfg.DecisionTrace != nil {
		s.trace = obs.NewTraceWriter(cfg.DecisionTrace)
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
	tombed := make(map[uint64]bool, len(tombs))
	for _, ts := range tombs {
		tombed[ts.EpisodeID] = true
		s.insertTombstoneLocked(ts)
		s.restored.Tombstones++
		// Tombstoned ids must advance the allocator like live ones: a fresh
		// episode minted at a tombstoned id would shadow the terminal
		// decision and corrupt both store namespaces.
		if sameIDRange(ts.EpisodeID, s.cfg.EpisodeIDBase) && ts.EpisodeID > s.nextID {
			s.nextID = ts.EpisodeID
		}
	}
	for _, st := range states {
		if tombed[st.EpisodeID] {
			// The previous process crashed between persisting the tombstone
			// (write-ahead) and deleting the episode record: the episode is
			// over; the tombstone wins and the stale record is cleaned up.
			stale = append(stale, st.EpisodeID)
			continue
		}
		// Only ids from this member's own range advance the allocator: an
		// adopted foreign-range id must not jump nextID into another
		// member's space.
		if sameIDRange(st.EpisodeID, s.cfg.EpisodeIDBase) && st.EpisodeID > s.nextID {
			s.nextID = st.EpisodeID
		}
		ep, rerr := s.replay(st)
		if rerr != nil {
			s.restored.Failed = append(s.restored.Failed, RestoreFailure{EpisodeID: st.EpisodeID, Err: rerr})
			continue
		}
		s.episodes[st.EpisodeID] = ep
		if st.ClientKey != "" {
			s.byKey[st.ClientKey] = st.EpisodeID
		}
		s.restored.Resumed++
	}
	s.mu.Unlock()
	for _, id := range stale {
		if derr := s.cfg.Checkpointer.Delete(id); derr != nil {
			s.m.checkpointErrors.Inc()
		}
	}
}

// insertTombstoneLocked registers one tombstone in the in-memory cache as
// its newest entry and returns it. The returned tombstone stays valid even
// if the cap evicts it from the cache. Caller holds s.mu.
func (s *Server) insertTombstoneLocked(ts TombstoneState) *tombstone {
	at := s.cfg.now()
	if ts.TerminatedAtUnixNano > 0 {
		at = time.Unix(0, ts.TerminatedAtUnixNano)
	}
	s.tombSeq++
	tb := &tombstone{final: ts.Final, key: ts.ClientKey, steps: ts.Steps, at: at, seq: s.tombSeq}
	s.tombstones[ts.EpisodeID] = tb
	s.tombOrder = append(s.tombOrder, tombRef{id: ts.EpisodeID, seq: tb.seq})
	if ts.ClientKey != "" {
		s.tombByKey[ts.ClientKey] = ts.EpisodeID
	}
	s.trimTombstonesLocked()
	return tb
}

// trimTombstonesLocked evicts the earliest-inserted tombstones past the cap —
// from memory only; the durable records stay until their TTL, and reads fall
// back to the store. Setting tombOverflow tells Sweep that store-only
// tombstones may exist and need a store scan to expire. Each live cache
// entry has exactly one live reference in tombOrder, so the queue holds
// len(tombstones) live references plus dead ones; it is rebuilt from the
// live ones once the dead outnumber them, which keeps it within twice the
// cache size and costs O(1) amortized per insertion. Caller holds s.mu.
func (s *Server) trimTombstonesLocked() {
	for len(s.tombstones) > maxTombstones {
		ref := s.tombOrder[0]
		s.tombOrder = s.tombOrder[1:]
		tb := s.tombstones[ref.id]
		if tb == nil || tb.seq != ref.seq {
			continue
		}
		if tb.key != "" {
			delete(s.tombByKey, tb.key)
		}
		delete(s.tombstones, ref.id)
		s.tombOverflow = true
	}
	if live := len(s.tombstones); len(s.tombOrder)-live > live {
		kept := make([]tombRef, 0, 2*live)
		for _, ref := range s.tombOrder {
			if tb := s.tombstones[ref.id]; tb != nil && tb.seq == ref.seq {
				kept = append(kept, ref)
			}
		}
		s.tombOrder = kept
	}
}

// tombstoneStateOf rebuilds the durable record from a cached tombstone.
func tombstoneStateOf(id uint64, tb *tombstone) TombstoneState {
	return TombstoneState{
		EpisodeID:            id,
		ClientKey:            tb.key,
		Steps:                tb.steps,
		Final:                tb.final,
		TerminatedAtUnixNano: tb.at.UnixNano(),
	}
}

// loadStoredTombstone consults the checkpoint store for a tombstone the
// in-memory cache no longer holds (evicted past the cap). Lookups by unknown
// id are rare, so a store scan here is acceptable.
func (s *Server) loadStoredTombstone(id uint64) (TombstoneState, bool) {
	if s.cfg.Checkpointer == nil {
		return TombstoneState{}, false
	}
	tombs, _, err := s.cfg.Checkpointer.LoadTombstones()
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
	return &episode{
		id:         st.EpisodeID,
		ctrl:       ctrl,
		clientKey:  st.ClientKey,
		steps:      st.Steps,
		history:    append([]Step(nil), st.History...),
		lastActive: s.cfg.now(),
	}, nil
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
	eps := make([]*episode, 0, len(s.episodes))
	for _, ep := range s.episodes {
		eps = append(eps, ep)
	}
	s.mu.Unlock()

	if s.janitorStop != nil {
		close(s.janitorStop)
		<-s.janitorDone
	}
	// Abort replication backoff sleeps and wait for in-flight senders; the
	// closed flag (set above) stops new ones from spawning.
	close(s.repStop)
	s.repWG.Wait()
	var firstErr error
	if s.cfg.Checkpointer != nil {
		for _, ep := range eps {
			ep.mu.Lock()
			st := ep.snapshotLocked()
			ep.mu.Unlock()
			if err := s.cfg.Checkpointer.Save(st); err != nil && firstErr == nil {
				firstErr = err
			}
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
		cutoff := now.Add(-s.cfg.EpisodeTTL)
		for _, ep := range s.episodes {
			ep.mu.Lock()
			idle := ep.lastActive.Before(cutoff)
			ep.mu.Unlock()
			if idle {
				expired = append(expired, ep)
				delete(s.episodes, ep.id)
				if ep.clientKey != "" {
					delete(s.byKey, ep.clientKey)
				}
			}
		}
	}
	if tombTTL > 0 {
		cutoff := now.Add(-tombTTL)
		for id, tb := range s.tombstones {
			if tb.at.Before(cutoff) {
				delete(s.tombstones, id)
				if tb.key != "" {
					delete(s.tombByKey, tb.key)
				}
				expiredTombs = append(expiredTombs, id)
			}
		}
		if s.tombOverflow {
			scanStore = true
			s.tombOverflow = len(s.tombstones) >= maxTombstones
		}
	}
	s.mu.Unlock()

	for _, ep := range expired {
		s.m.evicted.Inc()
		if s.cfg.Checkpointer != nil {
			if err := s.cfg.Checkpointer.Delete(ep.id); err != nil {
				s.m.checkpointErrors.Inc()
			}
		}
	}
	for _, id := range expiredTombs {
		s.m.tombstonesEvicted.Inc()
		if s.cfg.Checkpointer != nil {
			if err := s.cfg.Checkpointer.DeleteTombstone(id); err != nil {
				s.m.checkpointErrors.Inc()
			}
		}
	}
	if scanStore && s.cfg.Checkpointer != nil {
		// Cache overflow means the store may hold tombstones the in-memory
		// loop above never saw; expire them straight from the store.
		cutoffNano := now.Add(-tombTTL).UnixNano()
		if tombs, _, err := s.cfg.Checkpointer.LoadTombstones(); err == nil {
			for _, ts := range tombs {
				if ts.TerminatedAtUnixNano >= cutoffNano {
					continue
				}
				s.mu.Lock()
				_, cached := s.tombstones[ts.EpisodeID]
				s.mu.Unlock()
				if cached {
					continue
				}
				s.m.tombstonesEvicted.Inc()
				if err := s.cfg.Checkpointer.DeleteTombstone(ts.EpisodeID); err != nil {
					s.m.checkpointErrors.Inc()
				}
			}
		}
	}
	return len(expired)
}

// OpenEpisodes reports the number of live episodes (for tests and metrics).
func (s *Server) OpenEpisodes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.episodes)
}

// API payloads.
type (
	// StartRequest is the optional body of POST /v1/episodes. ClientKey is a
	// client-generated idempotency key: starting twice with the same key
	// returns the same episode instead of creating a duplicate.
	StartRequest struct {
		ClientKey string `json:"clientKey,omitempty"`
	}
	// StartResponse is returned by POST /v1/episodes.
	StartResponse struct {
		EpisodeID uint64 `json:"episodeId"`
	}
	// StatusResponse is returned by GET /v1/episodes/{id}.
	StatusResponse struct {
		EpisodeID uint64 `json:"episodeId"`
		Steps     int    `json:"steps"`
		Open      bool   `json:"open"`
	}
	// DecisionResponse is returned by GET .../decision and by
	// POST .../observations with decide set.
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
	// retransmit and is acknowledged without being applied again.
	ObservationRequest struct {
		Action          int    `json:"action"`
		Observation     int    `json:"observation"`
		ActionName      string `json:"actionName,omitempty"`
		ObservationName string `json:"observationName,omitempty"`
		StepIndex       *int   `json:"stepIndex,omitempty"`
		// Decide asks for the next decision in the same exchange: the
		// server answers 200 with the DecisionResponse that GET .../decision
		// would return for the new step, instead of 204. A retransmit gets
		// the decision cached for the current step, and a retransmit of an
		// episode's final observation gets its terminal decision from the
		// tombstone.
		Decide bool `json:"decide,omitempty"`
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
	if r.Body != nil && r.ContentLength != 0 {
		body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decode start request: %w", err))
			return
		}
	}

	if s.fleetEnabled() && req.ClientKey != "" {
		// Route by key before anything else: a non-owner redirects, the owner
		// lazily adopts the key from down members so the dedupe below finds
		// an episode started on a now-dead member.
		if s.fleetStart(w, r, req.ClientKey) {
			return
		}
	}

	s.mu.Lock()
	if req.ClientKey != "" {
		if id, ok := s.byKey[req.ClientKey]; ok {
			s.mu.Unlock()
			s.m.dedupedStarts.Inc()
			writeJSON(w, http.StatusOK, StartResponse{EpisodeID: id})
			return
		}
		if id, ok := s.tombByKey[req.ClientKey]; ok {
			// The key's episode already terminated. Answering with the original
			// id (not a fresh episode) routes the client's retried final
			// request to the tombstone, so the terminal decision is replayed
			// rather than recomputed.
			s.mu.Unlock()
			s.m.dedupedStarts.Inc()
			writeJSON(w, http.StatusOK, StartResponse{EpisodeID: id})
			return
		}
	}
	if len(s.episodes) >= s.cfg.MaxEpisodes {
		s.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
		writeError(w, http.StatusTooManyRequests, fmt.Errorf("episode cap %d reached", s.cfg.MaxEpisodes))
		return
	}
	s.nextID++
	id := s.nextID
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
	ep := &episode{id: id, ctrl: ctrl, clientKey: req.ClientKey, lastActive: s.cfg.now()}

	s.mu.Lock()
	if req.ClientKey != "" {
		// A concurrent duplicate may have won the race while the factory ran —
		// or even terminated already, leaving only a tombstone.
		if existing, ok := s.byKey[req.ClientKey]; ok {
			s.mu.Unlock()
			s.m.dedupedStarts.Inc()
			writeJSON(w, http.StatusOK, StartResponse{EpisodeID: existing})
			return
		}
		if existing, ok := s.tombByKey[req.ClientKey]; ok {
			s.mu.Unlock()
			s.m.dedupedStarts.Inc()
			writeJSON(w, http.StatusOK, StartResponse{EpisodeID: existing})
			return
		}
		s.byKey[req.ClientKey] = id
	}
	s.episodes[id] = ep
	s.mu.Unlock()
	s.m.started.Inc()
	s.checkpoint(ep)
	writeJSON(w, http.StatusCreated, StartResponse{EpisodeID: id})
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
			tb = s.insertTombstoneLocked(ts)
			s.mu.Unlock()
		}
	}
	if ep == nil && tb == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("episode %d not found", id))
		return 0, nil, nil, false
	}
	return id, ep, tb, true
}

// cached reads the episode and tombstone tables for id. A live episode wins:
// the two never coexist once termination or adoption has finished.
func (s *Server) cached(id uint64) (*episode, *tombstone) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ep := s.episodes[id]; ep != nil {
		return ep, nil
	}
	return nil, s.tombstones[id]
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
	ep.mu.Lock()
	steps := ep.steps
	ep.mu.Unlock()
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
		writeJSON(w, http.StatusOK, tb.final)
		return
	}
	s.serveDecision(w, id, ep)
}

// serveDecision answers with the decision for ep's current step: the cached
// one when this step was already decided, else a fresh one from the
// controller, recorded in the per-tier latency histogram and the decision
// trace. A terminal decision retires the episode: the tombstone is persisted
// write-ahead, the episode deleted, and the tombstone replicated. Both
// GET .../decision and a POST .../observations with decide set answer
// through here.
func (s *Server) serveDecision(w http.ResponseWriter, id uint64, ep *episode) {
	ep.mu.Lock()
	if ep.lastDecision != nil {
		resp := *ep.lastDecision
		ep.lastActive = s.cfg.now()
		ep.mu.Unlock()
		writeJSON(w, http.StatusOK, resp)
		return
	}
	t0 := time.Now()
	d, derr := ep.ctrl.Decide()
	if derr != nil {
		ep.mu.Unlock()
		writeError(w, http.StatusInternalServerError, derr)
		return
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
	if s.spans != nil {
		// The spanned wrapper lifts the tier off this response header onto
		// the decide span.
		w.Header().Set(HeaderTier, tier)
	}
	resp := DecisionResponse{Action: d.Action, Terminate: d.Terminate, Value: d.Value}
	if !d.Terminate || d.Action >= 0 {
		resp.ActionName = s.cfg.Model.M.ActionName(d.Action)
	}
	ep.lastDecision = &resp
	ep.lastActive = s.cfg.now()
	steps := ep.steps
	var rec *obs.DecisionRecord
	if s.trace != nil {
		// Build the record under ep.mu (the stats buffers are reused by the
		// episode's next decision) and write it after unlocking.
		rec = &obs.DecisionRecord{
			Episode:    id,
			Step:       ep.steps,
			Action:     d.Action,
			ActionName: resp.ActionName,
			Terminate:  d.Terminate,
			Value:      d.Value,
		}
		if ss, ok := ep.ctrl.(controller.StatsSource); ok && ss.StatsEnabled() {
			st := ss.DecisionStats()
			rec.Action = st.Action
			rec.QValues = append([]float64(nil), st.QValues...)
			rec.LeafBound = st.LeafBound
			rec.BoundGap = st.BoundGap
			rec.BeliefEntropy = st.BeliefEntropy
			rec.TreeNodes = st.TreeNodes
			rec.LeafEvals = st.LeafEvals
			rec.SlabPasses = st.SlabPasses
			rec.SetSize = st.SetSize
			rec.SetEvictions = st.SetEvictions
			rec.Tier = st.Tier
		}
	}
	ep.mu.Unlock()
	if rec != nil {
		_ = s.trace.Write(rec)
	}
	s.m.decisions.Inc()

	if d.Terminate {
		s.m.terminated.Inc()
		ts := TombstoneState{
			EpisodeID:            id,
			ClientKey:            ep.clientKey,
			Steps:                steps,
			Final:                resp,
			TerminatedAtUnixNano: s.cfg.now().UnixNano(),
		}
		// Write-ahead: persist the tombstone BEFORE deleting the episode
		// record. A crash between the two leaves both in the store; restore
		// and adoption resolve that in the tombstone's favor. The reverse
		// order would open a window where the final decision exists nowhere
		// durable.
		if s.cfg.Checkpointer != nil {
			s.storeWrite(ep.clientKey, obs.SpanOpTombstone, id, func() error { return s.cfg.Checkpointer.SaveTombstone(ts) })
		}
		s.mu.Lock()
		delete(s.episodes, id)
		if ep.clientKey != "" {
			delete(s.byKey, ep.clientKey)
		}
		s.insertTombstoneLocked(ts)
		s.mu.Unlock()
		if s.cfg.Checkpointer != nil {
			s.storeWrite(ep.clientKey, obs.SpanOpDelete, id, func() error { return s.cfg.Checkpointer.Delete(id) })
		}
		s.replicateTombstone(ts)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleObservation(w http.ResponseWriter, r *http.Request) {
	id, ep, tb, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req ObservationRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("observation body exceeds %d bytes", tooLarge.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode observation: %w", err))
		return
	}
	if ep == nil {
		// The episode is over. A retransmit of its final observation whose
		// first answer — the terminal decision — was lost gets that decision
		// again; any other observation is for an episode that is gone.
		if req.Decide && (req.StepIndex == nil || *req.StepIndex < tb.steps) {
			writeJSON(w, http.StatusOK, tb.final)
			return
		}
		writeError(w, http.StatusNotFound, fmt.Errorf("episode %d not found", id))
		return
	}
	action, obs := req.Action, req.Observation
	if req.ActionName != "" {
		a, err := s.lookupAction(req.ActionName)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		action = a
	}
	if req.ObservationName != "" {
		o, err := s.lookupObservation(req.ObservationName)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		obs = o
	}

	ep.mu.Lock()
	if req.StepIndex != nil {
		switch {
		case *req.StepIndex < ep.steps:
			// Retransmit of an already-applied observation: acknowledge
			// without applying it twice.
			ep.lastActive = s.cfg.now()
			ep.mu.Unlock()
			s.m.dedupedObs.Inc()
			s.acknowledge(w, id, ep, req.Decide)
			return
		case *req.StepIndex > ep.steps:
			have := ep.steps
			ep.mu.Unlock()
			writeError(w, http.StatusConflict,
				fmt.Errorf("observation step %d out of order (episode has %d)", *req.StepIndex, have))
			return
		}
	}
	if err := ep.ctrl.Observe(action, obs); err != nil {
		ep.mu.Unlock()
		status := http.StatusInternalServerError
		if errors.Is(err, pomdp.ErrImpossibleObservation) {
			status = http.StatusUnprocessableEntity
		}
		writeError(w, status, err)
		return
	}
	ep.steps++
	ep.history = append(ep.history, Step{Action: action, Observation: obs})
	ep.lastDecision = nil
	ep.lastActive = s.cfg.now()
	st := ep.snapshotLocked()
	ep.mu.Unlock()

	s.m.observed.Inc()
	s.checkpointState(st)
	s.acknowledge(w, id, ep, req.Decide)
}

// acknowledge answers an applied or deduplicated observation: 204, or with
// decide set, 200 and the decision for the episode's new step.
func (s *Server) acknowledge(w http.ResponseWriter, id uint64, ep *episode, decide bool) {
	if decide {
		s.serveDecision(w, id, ep)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleBelief(w http.ResponseWriter, r *http.Request) {
	_, ep, ok := s.episode(w, r)
	if !ok {
		return
	}
	ep.mu.Lock()
	b := ep.ctrl.Belief()
	ep.mu.Unlock()
	writeJSON(w, http.StatusOK, BeliefResponse{Belief: b})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id, ep, ok := s.episode(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	delete(s.episodes, id)
	if ep.clientKey != "" {
		delete(s.byKey, ep.clientKey)
	}
	s.mu.Unlock()
	if s.cfg.Checkpointer != nil {
		if err := s.cfg.Checkpointer.Delete(id); err != nil {
			s.m.checkpointErrors.Inc()
		}
	}
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

// checkpoint snapshots ep and persists it (best-effort; failures are
// counted, not fatal to the request).
func (s *Server) checkpoint(ep *episode) {
	if s.cfg.Checkpointer == nil {
		return
	}
	ep.mu.Lock()
	st := ep.snapshotLocked()
	ep.mu.Unlock()
	s.checkpointState(st)
}

func (s *Server) checkpointState(st EpisodeState) {
	if s.cfg.Checkpointer == nil {
		return
	}
	s.storeWrite(st.ClientKey, obs.SpanOpSave, st.EpisodeID, func() error { return s.cfg.Checkpointer.Save(st) })
}

// storeWrite runs one checkpoint-store write for an episode: a failure is
// counted, not fatal to the request, and with spans on the write is recorded
// as a server.checkpoint span under the episode's trace id.
func (s *Server) storeWrite(trace, op string, id uint64, write func() error) {
	t0 := s.spanStart()
	err := write()
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

func retryAfterSeconds(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already out; nothing more to do.
		_ = err
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}
