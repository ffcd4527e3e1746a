package main

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"bpomdp/internal/client"
	"bpomdp/internal/rng"
)

// workload is one traffic mix over the served stack.
type workload struct {
	name string
	why  string

	fsc     bool // serve the tiered FSC-then-tree decider (else the tree)
	durable bool // give every member the default checkpoint store
	fleet   bool // three members with redirects, replication and adoption
	batch   bool // stateless POST /v1/decide/batch instead of episodes

	// Warm-up and measured episodes run as campaigns of chunkSize
	// episodes. The warm-up is untimed and sized to reach a daemon's
	// steady state; the measured window runs whole chunks until its time
	// is up.
	warmupChunks, chunkSize int
}

// workloads are chosen to pull the layers apart; README.md maps each
// per-layer metric to the end-to-end metric and workload it should move.
// BENCHMARK.json gates episode_fsc and batch_tree only: the checkpoint
// store's file operations on the reference host vary several-fold within
// a minute, wider than any bound the gate allows (see README.md).
var workloads = []*workload{
	{
		name: "episode_fsc",
		why:  "per-episode API with the FSC tier and no store: the controller is under 1% of a call, so this isolates client, net/http, JSON, handlers and the episode tables",
		fsc:  true,
		// 5,120 warm-up episodes fill the server's 4,096-entry tombstone
		// cache, the steady state of a long-running daemon.
		warmupChunks: 5, chunkSize: 1024,
	},
	{
		name:    "episode_durable",
		why:     "episode_fsc plus the default checkpoint store, which writes every state change: the only single-server workload with checkpointing",
		fsc:     true,
		durable: true,
		// As episode_fsc, 4,608 warm-up episodes fill the tombstone cache.
		warmupChunks: 9, chunkSize: 512,
	},
	{
		name:  "batch_tree",
		why:   "stateless POST /v1/decide/batch answered by the Max-Avg tree over refined bounds: controller-bound, with no episode state or store touched",
		batch: true,
		// No episode or tombstone tables are touched; the warm-up only
		// settles connections, pools and the heap.
		warmupChunks: 2, chunkSize: 2048,
	},
	{
		name:    "fleet3",
		why:     "three members with stores: the only workload with 307 redirects, tombstone replication and a forced adoption",
		fsc:     true,
		durable: true,
		fleet:   true,
		// Each member sees about a third of the terminations plus the
		// replicas it receives, so 1,536 warm-up episodes settle the stores
		// without the minutes it would take to fill three tombstone caches.
		warmupChunks: 3, chunkSize: 512,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// sizes fix how much work a run does beyond its measured time.
type sizes struct {
	setups       int // set-ups timed for setup_s, half before the window (the last of those serves) and half after
	warmupChunks int // 0 means the workload's own
	chunkSize    int // 0 means the workload's own
	timedChunks  int // > 0 bounds each measured window by work, not time
	adoptOpen    int // fleet3 episodes left open on n3 for the adoption
}

var defaultSizes = sizes{setups: 40, adoptOpen: 64}

// config is one benchmark invocation.
type config struct {
	wl      *workload
	seed    uint64
	window  time.Duration // measured window; the traced run splits it in two
	trace   bool
	workDir string // stores live here
	spans   string // traced run: span file, "" for none
	sz      sizes
}

func (c *config) warmupChunks() int {
	if c.sz.warmupChunks > 0 {
		return c.sz.warmupChunks
	}
	return c.wl.warmupChunks
}

func (c *config) chunkSize() int {
	if c.sz.chunkSize > 0 {
		return c.sz.chunkSize
	}
	return c.wl.chunkSize
}

// measure is one reported metric value with its sample count.
type measure struct {
	value float64
	n     int
}

// checkResult is one correctness check; err nil means it passed.
type checkResult struct {
	name string
	err  error
}

// result is everything a run reports.
type result struct {
	metrics            map[string]measure
	checks             []checkResult
	attempted, failed  int
	untraced, traced   *windowStats
	decompositionNanos map[string]int64 // traced layer self times, summed over workers
	workerWallNanos    int64
}

func (r *result) check(name string, err error) {
	r.checks = append(r.checks, checkResult{name: name, err: err})
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if c.err != nil {
			return false
		}
	}
	return true
}

// windowStats is a measured window plus the server-side counters that
// moved during it.
type windowStats struct {
	*windowResult
	fscHits, fscFallbacks        uint64
	tierFSC, tierTree            float64 // decide-latency histogram counts by tier
	replications, replicationErr float64
	layers                       *layerCounters // traced stacks only
}

// run performs one invocation: set-ups, the measured window (untraced,
// then traced when asked), the correctness checks and the metrics.
func run(cfg config) (*result, error) {
	res := &result{metrics: make(map[string]measure)}

	// Half the set-ups run before the measured window and half after it, so
	// that their median spans the run rather than its first second.
	var setups []setupTimes
	s, err := cfg.timeSetups((cfg.sz.setups+1)/2, true, &setups)
	if err != nil {
		return nil, err
	}
	defer func() {
		if s != nil {
			_ = s.close()
		}
	}()
	pol := s.pol
	root := rng.New(cfg.seed)
	window := cfg.window
	if cfg.trace {
		window /= 2
	}

	u, err := cfg.measureWindow(s, root, window)
	if err != nil {
		return nil, err
	}
	res.untraced = u
	var adopted int
	var adoptTook time.Duration
	if cfg.wl.fleet {
		adopted, adoptTook, err = s.forceAdoption(cfg.seed, cfg.sz.adoptOpen)
		res.check("fleet_adoption", err)
	}
	err = s.close()
	s = nil
	if err != nil {
		return nil, err
	}
	if _, err := cfg.timeSetups(cfg.sz.setups/2, false, &setups); err != nil {
		return nil, err
	}

	local, err := pol.replayChunk0(root.Split("timed"), cfg.chunkSize(), cfg.wl.batch)
	if err != nil {
		return nil, fmt.Errorf("local replay: %w", err)
	}
	windows := []*windowStats{u}
	if cfg.trace {
		tr := newTracer()
		var discard setupTimes
		ts, err := newStack(cfg.wl, pol, cfg.workDir, tr, &discard)
		if err != nil {
			return nil, err
		}
		t, err := cfg.measureWindow(ts, root, window)
		if cerr := ts.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		res.traced = t
		windows = append(windows, t)
		res.decompose(t)
		if cfg.spans != "" {
			if err := tr.writeSpans(cfg.spans); err != nil {
				return nil, fmt.Errorf("write spans: %w", err)
			}
		}
		res.layerMetrics(u, t, adopted, adoptTook)
	}

	for i, w := range windows {
		label := [...]string{"untraced", "traced"}[i]
		res.attempted += w.episodes + w.abandoned
		res.failed += w.abandoned + len(w.errs)
		var fail error
		if w.abandoned > 0 || len(w.errs) > 0 {
			fail = fmt.Errorf("%d episodes abandoned: %w", w.abandoned, errors.Join(w.errs...))
		}
		res.check(label+"_no_failures", fail)
		res.check(label+"_replay_chunk0", w.checkReplay(local))
		if cfg.wl.batch && w.batchEnded != w.episodes {
			res.check(label+"_batch_episode_count", fmt.Errorf("timed %d terminal decisions for %d episodes", w.batchEnded, w.episodes))
		}
		if cfg.wl.fleet {
			var err error
			if w.replicationErr != 0 {
				err = fmt.Errorf("%v tombstone replications failed", w.replicationErr)
			}
			res.check(label+"_replication_errors", err)
		}
	}
	if cfg.trace {
		res.check("traced_fsc_counts", sameFSCCounts(u, res.traced, cfg.sz.timedChunks > 0))
	}

	res.setupMetrics(setups, cfg.trace)
	if !cfg.trace {
		res.endToEndMetrics(u)
	}
	return res, nil
}

// timeSetups builds the policy and the stack n times, appending each
// set-up's times to setups. With keep, the last stack stays up to serve;
// every other one is closed.
func (c *config) timeSetups(n int, keep bool, setups *[]setupTimes) (*stack, error) {
	for i := 0; i < n; i++ {
		var st setupTimes
		pol, err := buildPolicy(c.wl.fsc, &st)
		if err != nil {
			return nil, err
		}
		s, err := newStack(c.wl, pol, c.workDir, nil, &st)
		if err != nil {
			return nil, err
		}
		*setups = append(*setups, st)
		if keep && i == n-1 {
			return s, nil
		}
		if err := s.close(); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// sameFSCCounts holds the traced run to the untraced run's server paths:
// with the same work, the FSC table and the server's tier-labelled
// histogram must count the same hits, fallbacks and tiers. A time-bounded
// pair of windows runs different amounts of work, so there the tier
// histograms must match the table's own counters instead.
func sameFSCCounts(u, t *windowStats, sameWork bool) error {
	for _, w := range []*windowStats{u, t} {
		if w.tierFSC != float64(w.fscHits) {
			return fmt.Errorf("tier histogram counted %v fsc decisions, the FSC table %d hits", w.tierFSC, w.fscHits)
		}
	}
	if sameWork && (u.fscHits != t.fscHits || u.fscFallbacks != t.fscFallbacks || u.tierTree != t.tierTree) {
		return fmt.Errorf("untraced fsc %d/%d tree %v, traced fsc %d/%d tree %v",
			u.fscHits, u.fscFallbacks, u.tierTree, t.fscHits, t.fscFallbacks, t.tierTree)
	}
	return nil
}

// measureWindow warms the stack up on the seed's warm-up stream, then
// measures one window on its timed stream.
func (c *config) measureWindow(s *stack, root *rng.Stream, window time.Duration) (*windowStats, error) {
	ws := make([]*worker, workers)
	for i := range ws {
		w, err := newWorker(s, i, c.seed)
		if err != nil {
			return nil, err
		}
		ws[i] = w
	}
	warm := s.runWindow(ws, "w", root.Split("warmup"), c.chunkSize(), budget{chunks: c.warmupChunks()})
	if len(warm.errs) > 0 || warm.abandoned > 0 {
		return nil, fmt.Errorf("warm-up: %d episodes abandoned: %w", warm.abandoned, errors.Join(warm.errs...))
	}
	if s.tr != nil {
		s.tr.reset()
	}
	out := &windowStats{}
	hits0, fb0 := s.pol.fscCounts()
	fsc0, tree0 := s.gather(tierSeries("fsc")), s.gather(tierSeries("tree"))
	rep0, repErr0 := s.gather("recoverd_tombstones_replicated_total"), s.gather("recoverd_tombstone_replication_errors_total")

	b := budget{chunks: c.sz.timedChunks, deadline: time.Now().Add(window)}
	out.windowResult = s.runWindow(ws, "t", root.Split("timed"), c.chunkSize(), b)
	// Replication is asynchronous: let the window's last tombstones land
	// before reading its counters.
	if err := s.waitReplication(10 * time.Second); err != nil {
		return nil, err
	}
	if s.tr != nil {
		out.layers = s.tr.freeze()
	}
	hits1, fb1 := s.pol.fscCounts()
	out.fscHits, out.fscFallbacks = hits1-hits0, fb1-fb0
	out.tierFSC = s.gather(tierSeries("fsc")) - fsc0
	out.tierTree = s.gather(tierSeries("tree")) - tree0
	out.replications = s.gather("recoverd_tombstones_replicated_total") - rep0
	out.replicationErr = s.gather("recoverd_tombstone_replication_errors_total") - repErr0
	return out, nil
}

func tierSeries(tier string) string {
	return `recoverd_decision_duration_seconds_count{tier="` + tier + `"}`
}

// waitReplication waits until no member has a tombstone replication in
// flight.
func (s *stack) waitReplication(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for s.gather("recoverd_tombstone_replication_inflight") > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("tombstone replication still in flight after %v", limit)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// forceAdoption leaves n episodes open on n3 after one observation, drops
// n3 without a shutdown, and times the survivors' MarkMemberDown. Every
// episode must then answer GET /v1/episodes/{id} on its new owner with one
// applied step.
func (s *stack) forceAdoption(seed uint64, n int) (int, time.Duration, error) {
	victim := s.members[len(s.members)-1]
	hc := &http.Client{Transport: s.base}
	c, err := client.New(victim.url, hc)
	if err != nil {
		return 0, 0, err
	}
	rm := s.pol.compiled.Recovery
	obs := likeliestObservation(rm.POMDP.Obs[rm.MonitorAction].RowSlice(rm.NullStates[0]))
	type open struct {
		id  uint64
		key string
	}
	var opened []open
	for j := 0; len(opened) < n; j++ {
		key := fmt.Sprintf("%d-adopt-%d", seed, j)
		if owner, ok := victim.view.Owner(key); !ok || owner.ID != victim.id {
			continue
		}
		ep, err := c.StartEpisodeKeyed(key)
		if err != nil {
			return 0, 0, err
		}
		if err := ep.Observe(rm.MonitorAction, obs); err != nil {
			return 0, 0, err
		}
		opened = append(opened, open{id: ep.ID(), key: key})
	}

	victim.kill()
	adopted := 0
	t0 := time.Now()
	for _, m := range s.members[:len(s.members)-1] {
		k, err := m.srv.MarkMemberDown(victim.id)
		if err != nil {
			return 0, 0, err
		}
		adopted += k
	}
	took := time.Since(t0)
	if adopted != n {
		return adopted, took, fmt.Errorf("survivors adopted %d episodes, want %d", adopted, n)
	}
	urls := make(map[string]string)
	for _, m := range s.members {
		urls[m.id] = m.url
	}
	for _, o := range opened {
		owner, ok := s.members[0].view.Owner(o.key)
		if !ok {
			return adopted, took, fmt.Errorf("episode %s has no owner", o.key)
		}
		oc, err := client.New(urls[owner.ID], hc)
		if err != nil {
			return adopted, took, err
		}
		ep, err := oc.Resume(o.id)
		if err != nil {
			return adopted, took, fmt.Errorf("adopted episode %d on %s: %w", o.id, owner.ID, err)
		}
		if ep.Steps() != 1 {
			return adopted, took, fmt.Errorf("adopted episode %d on %s has %d steps, want 1", o.id, owner.ID, ep.Steps())
		}
	}
	return adopted, took, nil
}

// likeliestObservation picks the most probable entry of a sparse
// observation row.
func likeliestObservation(cols []int, vals []float64) int {
	best := 0
	for i := range vals {
		if vals[i] > vals[best] {
			best = i
		}
	}
	return cols[best]
}

// setupMetrics reports set-up time as the median of the set-ups, overall
// (end to end) or by stage (per layer).
func (r *result) setupMetrics(setups []setupTimes, perLayer bool) {
	pick := func(f func(setupTimes) time.Duration) measure {
		v := make([]float64, len(setups))
		for i, st := range setups {
			v[i] = f(st).Seconds()
		}
		return measure{value: median(v), n: len(v)}
	}
	if !perLayer {
		r.metrics["setup_s"] = pick(setupTimes.total)
		return
	}
	r.metrics["setup.build_s"] = pick(func(t setupTimes) time.Duration { return t.build })
	r.metrics["setup.bootstrap_s"] = pick(func(t setupTimes) time.Duration { return t.bootstrap })
	r.metrics["setup.refine_s"] = pick(func(t setupTimes) time.Duration { return t.refine })
	r.metrics["setup.fsc_compile_s"] = pick(func(t setupTimes) time.Duration { return t.fscCompile })
	r.metrics["setup.server_s"] = pick(func(t setupTimes) time.Duration { return t.server })
}

// endToEndMetrics reports what a user of the served system sees, from the
// untraced window.
func (r *result) endToEndMetrics(u *windowStats) {
	m := r.metrics
	m["episodes_per_s"] = measure{value: u.rate, n: u.episodes}
	m["step_p95_us"] = u.stepMicros(0.95)
	m["episode_p99_ms"] = u.episodeMillis(0.99)
	m["mean_cost"] = measure{value: ratio(u.costSum, float64(u.episodes)), n: u.episodes}
	m["max_rss_mb"] = measure{value: float64(readRuntime().maxRSSKiB) / 1024, n: 1}
}

// decompose splits the traced workers' wall time into layer self times.
func (r *result) decompose(t *windowStats) {
	c := t.layers
	calls, trips, handlers := c.calls.nanos.Load(), c.roundTrips.nanos.Load(), c.handlers.nanos.Load()
	ctrl := c.decide.nanos.Load() + c.observe.nanos.Load() + c.batch.nanos.Load()
	ckpt := c.checkpoint.nanos.Load()
	r.workerWallNanos = int64(t.wallSum)
	r.decompositionNanos = map[string]int64{
		"sim":        int64(t.wallSum) - calls,
		"client":     calls - trips,
		"transport":  trips - handlers,
		"server":     handlers - ctrl - ckpt,
		"controller": ctrl,
		"checkpoint": ckpt,
	}
}

// layerMetrics reports the per-layer metrics: the traced decomposition and
// counters from the traced window t, and the cheap counters, set-up stages
// and adoption from the untraced window u.
func (r *result) layerMetrics(u, t *windowStats, adopted int, adoptTook time.Duration) {
	m, c := r.metrics, t.layers
	eps := float64(t.episodes)
	perEp := func(nanos int64) measure { return measure{value: ratio(float64(nanos)/1e3, eps), n: t.episodes} }
	layers := make([]string, 0, len(r.decompositionNanos))
	for l := range r.decompositionNanos {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		m[l+".us_per_episode"] = perEp(r.decompositionNanos[l])
	}

	ue := float64(u.episodes)
	m["latency.step_p50_us"] = u.stepMicros(0.50)
	m["latency.step_p99_us"] = u.stepMicros(0.99)
	m["latency.episode_p50_ms"] = u.episodeMillis(0.50)
	m["runtime.cpu_us_per_episode"] = measure{value: ratio(float64(u.cpu)/1e3, ue), n: u.episodes}
	m["runtime.mallocs_per_episode"] = measure{value: ratio(float64(u.mallocs), ue), n: u.episodes}
	m["runtime.alloc_bytes_per_episode"] = measure{value: ratio(float64(u.allocBytes), ue), n: u.episodes}
	m["runtime.gc_cycles"] = measure{value: float64(u.gcs), n: 1}
	m["runtime.gc_pause_ms"] = measure{value: float64(u.gcPause) / 1e6, n: int(u.gcs)}

	calls, trips := c.calls.n.Load(), c.roundTrips.n.Load()
	redirects := c.redirects.n.Load()
	m["client.calls_per_episode"] = measure{value: ratio(float64(calls), eps), n: int(calls)}
	m["client.retries"] = measure{value: float64(trips - redirects - calls), n: int(trips)}
	m["transport.us_per_round_trip"] = measure{
		value: ratio(float64(c.roundTrips.nanos.Load()-c.handlers.nanos.Load())/1e3, float64(trips)), n: int(trips)}
	m["transport.new_conns"] = measure{value: float64(c.dials.Load()), n: 1}
	handlers := c.handlers.n.Load()
	m["server.requests_per_episode"] = measure{value: ratio(float64(handlers), eps), n: int(handlers)}
	m["server.p99_us"] = measure{value: c.handlerHist.quantileMicros(0.99), n: int(handlers)}
	m["server.rejected"] = measure{value: float64(c.rejected.Load()), n: int(handlers)}

	decides, beliefs, batches := c.decide.n.Load(), c.beliefs.Load(), c.batch.n.Load()
	m["controller.decide_us"] = measure{value: c.decide.meanMicros(), n: int(decides)}
	m["controller.decide_p99_us"] = measure{value: c.decideHist.quantileMicros(0.99), n: int(decides)}
	m["controller.observe_us"] = measure{value: c.observe.meanMicros(), n: int(c.observe.n.Load())}
	m["controller.beliefs_per_batch"] = measure{value: ratio(float64(beliefs), float64(batches)), n: int(batches)}
	m["controller.us_per_belief"] = measure{
		value: ratio(float64(c.decide.nanos.Load()+c.batch.nanos.Load())/1e3, float64(decides+beliefs)), n: int(decides + beliefs)}
	m["controller.fsc_hit_ratio"] = measure{
		value: ratio(float64(u.fscHits), float64(u.fscHits+u.fscFallbacks)), n: int(u.fscHits + u.fscFallbacks)}

	writes := c.checkpoint.n.Load()
	m["checkpoint.writes_per_episode"] = measure{value: ratio(float64(writes), eps), n: int(writes)}
	m["checkpoint.write_us"] = measure{value: c.checkpoint.meanMicros(), n: int(writes)}
	m["checkpoint.write_p99_us"] = measure{value: c.checkpointHist.quantileMicros(0.99), n: int(writes)}

	m["fleet.redirect_share"] = measure{value: ratio(float64(redirects), float64(calls)), n: int(calls)}
	m["fleet.redirect_us"] = measure{value: c.redirects.meanMicros(), n: int(redirects)}
	m["fleet.replications_per_episode"] = measure{value: ratio(u.replications, ue), n: u.episodes}
	m["fleet.replication_errors"] = measure{value: u.replicationErr, n: int(u.replications)}
	m["fleet.accept_us"] = measure{value: c.accepts.meanMicros(), n: int(c.accepts.n.Load())}
	m["fleet.adopted"] = measure{value: float64(adopted), n: 1}
	m["fleet.adopt_ms"] = measure{value: float64(adoptTook) / 1e6, n: 1}

	m["trace.overhead_frac"] = measure{value: 1 - ratio(t.rate, u.rate), n: t.episodes}
}
