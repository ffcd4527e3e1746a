// Command bench measures the hot paths of the unified campaign engine on
// the EMN model and writes the results as machine-readable JSON
// (BENCH_campaign.json by default) so CI and benchstat-style tooling can
// track regressions without scraping `go test -bench` text output.
//
// The entries time the paper's §5 Table 1 fault-injection campaign with
// and without the decision store and on one and on several workers
// (campaign_*), the belief update, the RA-Bound sweep and solve, the
// batched leaf evaluation and Max-Avg expansion, one tree decision at
// depths 1–3, the compiled FSC tier, offline bound refinement, and the
// RA-Bound solve and a decision on the larger replica models. docs/FORMATS.md (bpomdp.bench/v1) lists each
// entry and its fields.
//
// With -compare the run is the CI benchmark gate instead: gate pairs this
// binary with the named bench binary, built at the base revision, entry by
// entry, through -serve workers of both, and comparePairs rules on each
// entry. The candidate's median report is written to -out and any
// regression exits 1.
//
// Usage:
//
//	go run ./cmd/bench -out BENCH_campaign.json -mintime 1s
//	go run ./cmd/bench -mintime 50ms -out /tmp/b.json -compare <base bench binary>
//	make bench-smoke BENCH_BASE=HEAD^1   # builds the base binary, then gates
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"bpomdp/internal/arch"
	"bpomdp/internal/bounds"
	"bpomdp/internal/controller"
	"bpomdp/internal/core"
	"bpomdp/internal/emn"
	"bpomdp/internal/linalg"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
	"bpomdp/internal/sim"
)

const (
	// benchSchema identifies the BENCH_campaign.json document format.
	benchSchema = "bpomdp.bench/v1"
	// campaignEpisodes is the length of every campaign entry: long enough
	// that a store-hit campaign takes over a millisecond.
	campaignEpisodes = 1024
)

// Report is the BENCH_campaign.json document ("bpomdp.bench/v1").
type Report struct {
	Schema    string           `json:"schema"`
	Timestamp string           `json:"timestamp"`
	GoVersion string           `json:"go_version"`
	GOOS      string           `json:"goos"`
	GOARCH    string           `json:"goarch"`
	NumCPU    int              `json:"num_cpu"`
	Model     ModelInfo        `json:"model"`
	Bench     map[string]Entry `json:"benchmarks"`
}

// ModelInfo identifies the benchmarked model.
type ModelInfo struct {
	Name         string `json:"name"`
	States       int    `json:"states"`
	Actions      int    `json:"actions"`
	Observations int    `json:"observations"`
}

// Entry is one benchmark's result. Campaign entries additionally carry
// per-episode throughput figures.
type Entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
	// Campaign-only fields.
	Workers        int     `json:"workers,omitempty"`
	Episodes       int     `json:"episodes_per_campaign,omitempty"`
	EpisodesPerSec float64 `json:"episodes_per_sec,omitempty"`
	NsPerEpisode   float64 `json:"ns_per_episode,omitempty"`
	AllocsPerEp    int64   `json:"allocs_per_episode,omitempty"`
	// Bound-quality fields (campaign_tiered_* entries): decision count and
	// Max-Avg tree nodes expanded per decision on a fixed-seed profiling
	// campaign, plus the per-decision cost derived from the timed runs.
	Decisions         int     `json:"decisions,omitempty"`
	NsPerDecision     float64 `json:"ns_per_decision,omitempty"`
	TreeNodesExpanded float64 `json:"tree_nodes_expanded,omitempty"`
}

func entryOf(r testing.BenchmarkResult) Entry {
	return Entry{
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
	}
}

// derive fills the per-episode and per-decision figures of a campaign
// entry from its per-op ones.
func (e *Entry) derive() {
	if e.Episodes > 0 {
		e.NsPerEpisode = e.NsPerOp / float64(e.Episodes)
		e.EpisodesPerSec = 1e9 / e.NsPerEpisode
		e.AllocsPerEp = e.AllocsPerOp / int64(e.Episodes)
	}
	if e.Decisions > 0 {
		e.NsPerDecision = e.NsPerOp / float64(e.Decisions)
	}
}

// suite holds every benchmark, in report order, as the function that
// measures it against fixtures built once.
type suite struct {
	names   []string
	measure map[string]func() Entry
}

func (s *suite) add(name string, measure func() Entry) {
	s.names = append(s.names, name)
	s.measure[name] = measure
}

// timed measures f with testing.Benchmark.
func timed(f func(b *testing.B)) func() Entry {
	return func() Entry { return entryOf(testing.Benchmark(f)) }
}

func main() {
	testing.Init()
	out := flag.String("out", "BENCH_campaign.json", "output JSON path")
	mintime := flag.Duration("mintime", time.Second, "minimum measuring time per benchmark")
	compare := flag.String("compare", "", "bench binary built at the base revision: measure each entry on it and on this binary in alternating pairs, write this binary's median report, and fail on a regression")
	serveMode := flag.Bool("serve", false, "measure the entries named one per line on stdin, answering each with its JSON entry on stdout (the -compare gate's worker)")
	flag.Parse()

	if err := flag.Set("test.benchtime", mintime.String()); err != nil {
		fatal(err)
	}
	switch {
	case *serveMode:
		if err := serve(os.Stdin, os.Stdout); err != nil {
			fatal(err)
		}
	case *compare != "":
		regressions, err := gate(*compare, *mintime, *out)
		if err != nil {
			fatal(err)
		}
		if len(regressions) > 0 {
			os.Exit(1)
		}
	default:
		rep, err := run()
		if err != nil {
			fatal(err)
		}
		if err := writeReport(*out, rep); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(rep.Bench))
		printReport(os.Stdout, rep)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// writeReport stamps rep and writes it as indented JSON to path.
func writeReport(path string, rep *Report) error {
	rep.Timestamp = time.Now().UTC().Format(time.RFC3339)
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// printReport lists rep's entries by name, campaigns per episode.
func printReport(w io.Writer, rep *Report) {
	names := make([]string, 0, len(rep.Bench))
	for name := range rep.Bench {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e := rep.Bench[name]
		if e.EpisodesPerSec > 0 {
			fmt.Fprintf(w, "  %-30s %10.1f episodes/sec  %8d allocs/episode\n", name, e.EpisodesPerSec, e.AllocsPerEp)
		} else {
			fmt.Fprintf(w, "  %-30s %10.0f ns/op  %8d allocs/op  %8d B/op\n", name, e.NsPerOp, e.AllocsPerOp, e.BytesPerOp)
		}
	}
}

// run measures every benchmark once, in report order.
func run() (*Report, error) {
	rep, s, err := setup()
	if err != nil {
		return nil, err
	}
	for _, name := range s.names {
		rep.Bench[name] = s.measure[name]()
	}
	return rep, nil
}

// serve is the -serve worker: it builds the fixtures, writes the names of
// its entries as one JSON line to say it is ready, and then answers each
// entry name read from in with that entry's measurement as one JSON line,
// or null for a name it has no entry for, until in ends.
func serve(in io.Reader, out io.Writer) error {
	_, s, err := setup()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(s.names); err != nil {
		return err
	}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		var e *Entry
		if measure, ok := s.measure[sc.Text()]; ok {
			e = new(Entry)
			*e = measure()
		}
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return sc.Err()
}

// setup builds the EMN model and every benchmark's fixtures, and returns
// the report header and the suite.
func setup() (*Report, *suite, error) {
	compiled, err := emn.Build(emn.Config{})
	if err != nil {
		return nil, nil, err
	}
	base := compiled.Recovery.POMDP
	rep := &Report{
		Schema:    benchSchema,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Model: ModelInfo{
			Name:         "emn",
			States:       base.NumStates(),
			Actions:      base.NumActions(),
			Observations: base.NumObservations(),
		},
		Bench: map[string]Entry{},
	}

	fx := &fixtures{compiled: compiled}
	if fx.prep, err = bootstrapped(compiled); err != nil {
		return nil, nil, err
	}
	if fx.runner, err = sim.NewRunner(compiled.Recovery, 20000); err != nil {
		return nil, nil, err
	}
	if fx.initial, err = fx.prep.InitialBelief(); err != nil {
		return nil, nil, err
	}
	s := &suite{measure: map[string]func() Entry{}}
	for _, add := range []func(*suite, *fixtures) error{
		benchBeliefUpdate, benchSolver, benchBatch, benchTree, benchFSC, benchBounds, benchCampaigns, benchScaling,
	} {
		if err := add(s, fx); err != nil {
			return nil, nil, err
		}
	}
	return rep, s, nil
}

// fixtures are what the benchmarks share: the compiled EMN model, its
// bootstrapped prepared set, a campaign runner and the initial belief.
type fixtures struct {
	compiled *arch.Compiled
	prep     *core.Prepared
	runner   *sim.Runner
	initial  pomdp.Belief
}

// bootstrapped prepares the EMN model and bootstraps its bound set.
func bootstrapped(compiled *arch.Compiled) (*core.Prepared, error) {
	p, err := core.Prepare(compiled.Recovery, core.PrepareOptions{
		OperatorResponseTime: emn.OperatorResponseTime,
	})
	if err != nil {
		return nil, err
	}
	if _, err := p.Bootstrap(10, controller.VariantAverage, 1, rng.New(3)); err != nil {
		return nil, err
	}
	return p, nil
}

// campaign times fault-injection campaigns of n episodes run with opts, one
// campaign per iteration seeded by its index.
func (fx *fixtures) campaign(n int, opts sim.CampaignOptions) func() Entry {
	return func() Entry {
		e := entryOf(testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := fx.runner.RunCampaignOpts(nil, nil, fx.compiled.ZombieStates, n, rng.New(uint64(i)), opts)
				if err != nil {
					b.Fatal(err)
				}
				if res.Episodes != n {
					b.Fatalf("campaign completed %d/%d episodes", res.Episodes, n)
				}
			}
		}))
		e.Workers = opts.Workers
		e.Episodes = n
		e.derive()
		return e
	}
}

// benchBounds measures offline HSVI bound refinement and its effect on
// online tree work: two FSC-fronted campaigns at the strictest gap
// threshold, one over the bootstrapped seed set and one over the refined
// set. Refinement drives compile-time node gaps to ~0, so the refined
// variant serves most decisions from the table and expands far fewer
// Max-Avg tree nodes per decision — tree_nodes_expanded and ns_per_decision
// are the bound-quality figures the ROADMAP asks the gate to watch.
func benchBounds(s *suite, fx *fixtures) error {
	// bounds_refine: one full offline refinement run to convergence. Each
	// iteration refines a fresh bootstrapped set; the rebuild is excluded
	// from the timed region.
	s.add("bounds_refine", timed(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p, err := bootstrapped(fx.compiled)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := p.RefineBounds(core.RefineConfig{}); err != nil {
				b.Fatal(err)
			}
		}
	}))

	tiered := func(name string, p *core.Prepared) error {
		fsc, err := p.CompileFSC(core.FSCConfig{Depth: 1})
		if err != nil {
			return err
		}
		dec, err := p.NewFSCDecider(fsc, core.ControllerConfig{Depth: 1, CollectStats: true}, 0)
		if err != nil {
			return err
		}
		factory := func() (controller.Controller, pomdp.Belief, error) {
			return dec, fx.initial, nil
		}
		opts := sim.CampaignOptions{Workers: 1, WorkerFactory: factory, BatchSize: 16}
		// Decision-work profile from one fixed-seed campaign, outside the
		// timed region.
		profile, err := fx.runner.RunCampaignOpts(nil, nil, fx.compiled.ZombieStates, campaignEpisodes, rng.New(0), opts)
		if err != nil {
			return err
		}
		if profile.Decisions == 0 {
			return fmt.Errorf("tiered profiling campaign recorded no decisions")
		}
		timeIt := fx.campaign(campaignEpisodes, opts)
		s.add(name, func() Entry {
			e := timeIt()
			e.Decisions = profile.Decisions
			e.TreeNodesExpanded = float64(profile.TreeNodes) / float64(profile.Decisions)
			e.derive()
			return e
		})
		return nil
	}

	seed, err := bootstrapped(fx.compiled)
	if err != nil {
		return err
	}
	if err := tiered("campaign_tiered_seed", seed); err != nil {
		return err
	}
	refined, err := bootstrapped(fx.compiled)
	if err != nil {
		return err
	}
	if _, err := refined.RefineBounds(core.RefineConfig{}); err != nil {
		return err
	}
	return tiered("campaign_tiered_refined", refined)
}

// benchFSC measures the compiled finite-state-controller fast path: batched
// decisions answered from the table (fsc_decide — the per-decision number to
// hold against batch_decide), and a full batched campaign decided by an
// FSC-fronted controller (campaign_fsc_tier). The table is compiled once outside the
// timed regions with a permissive gap threshold, so the campaign splits
// decisions across both tiers the way a deployed daemon would.
func benchFSC(s *suite, fx *fixtures) error {
	prep := fx.prep
	fsc, err := prep.CompileFSC(core.FSCConfig{Depth: 1})
	if err != nil {
		return err
	}
	dec, err := prep.NewFSCDecider(fsc, core.ControllerConfig{Depth: 1}, fsc.MaxGap()+1)
	if err != nil {
		return err
	}

	// The decision batch cycles through compiled-node beliefs: every decision
	// is a table hit, which is exactly the fast path's cost.
	const batch = 64
	beliefs := make([]pomdp.Belief, batch)
	for i := range beliefs {
		beliefs[i] = fsc.Node(i % fsc.NumNodes()).Belief
	}
	decisions := make([]controller.Decision, batch)
	if err := dec.DecideBatch(beliefs, decisions); err != nil {
		return err
	}
	s.add("fsc_decide", timed(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := dec.DecideBatch(beliefs, decisions); err != nil {
				b.Fatal(err)
			}
		}
	}))

	factory := func() (controller.Controller, pomdp.Belief, error) {
		return dec, fx.initial, nil
	}
	s.add("campaign_fsc_tier", fx.campaign(campaignEpisodes, sim.CampaignOptions{
		Workers:       1,
		WorkerFactory: factory,
		BatchSize:     16,
	}))
	return nil
}

// benchBatch measures the batched leaf evaluation (Set.ValueBatch over the
// state-major plane columns) and the full batched Max-Avg expansion
// (Bounded.DecideBatch), over dense random beliefs that are all distinct and
// over beliefs a batched campaign actually decides. All run with
// preallocated output buffers — the campaign's steady state — so allocs/op
// should be zero.
func benchBatch(s *suite, fx *fixtures) error {
	prep := fx.prep
	const batch = 64
	n := prep.Model.NumStates()
	stream := rng.New(7)
	beliefs := make([]pomdp.Belief, batch)
	for i := range beliefs {
		pi := make(pomdp.Belief, n)
		sum := 0.0
		for j := range pi {
			pi[j] = stream.Float64()
			sum += pi[j]
		}
		for j := range pi {
			pi[j] /= sum
		}
		beliefs[i] = pi
	}

	vals := make([]float64, batch)
	s.add("set_value_batch", timed(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			vals = prep.Set.ValueBatch(beliefs, nil, vals)
		}
	}))

	// The tree entries time the bare expansion: a controller without a
	// decision store, whose online region would answer every iteration
	// after the first from memory.
	cfg := core.ControllerConfig{Depth: 1}
	tree, err := controller.NewBounded(prep.Model, prep.Set, prep.BoundedConfig(cfg))
	if err != nil {
		return err
	}
	reachable, err := fx.campaignBeliefs(tree, batch)
	if err != nil {
		return err
	}
	tabled, err := prep.NewController(cfg)
	if err != nil {
		return err
	}
	decisions := make([]controller.Decision, batch)
	decide := func(ctrl *controller.Bounded, beliefs []pomdp.Belief) func() Entry {
		return timed(func(b *testing.B) {
			b.ReportAllocs()
			// Warm once outside the timed region so the engine's per-level
			// scratch is sized (and the online region filled) before
			// measurement.
			if err := ctrl.DecideBatch(beliefs, decisions); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ctrl.DecideBatch(beliefs, decisions); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	s.add("batch_decide", decide(tree, beliefs))
	s.add("batch_decide_reachable", decide(tree, reachable))
	s.add("batch_decide_table", decide(tabled, reachable))
	return nil
}

// benchTree times one Max-Avg decision (Engine.Choose) at the initial
// belief over the RA-seeded EMN set at depths 1, 2 and 3 (tree_depth1,
// tree_depth2, tree_depth3): the tree's growth with depth.
func benchTree(s *suite, fx *fixtures) error {
	prep, err := core.Prepare(fx.compiled.Recovery, core.PrepareOptions{
		OperatorResponseTime: emn.OperatorResponseTime,
	})
	if err != nil {
		return err
	}
	for depth := 1; depth <= 3; depth++ {
		if err := addChoose(s, fmt.Sprintf("tree_depth%d", depth), prep, depth); err != nil {
			return err
		}
	}
	return nil
}

// benchScaling times core.Prepare, whose cost is the RA-Bound solve
// (prepare_replica16, prepare_replica64), and a depth-1 decision at the
// initial belief (decide_replica16, decide_replica64) on the replica
// models of 16 and 64 hosts, 49 and 193 states: the off-line and on-line
// costs that Section 4.3 weighs as the system grows.
func benchScaling(s *suite, _ *fixtures) error {
	opts := core.PrepareOptions{OperatorResponseTime: 3600}
	for _, n := range []int{16, 64} {
		compiled, err := arch.Replicas(n).Compile()
		if err != nil {
			return err
		}
		rm := compiled.Recovery
		s.add(fmt.Sprintf("prepare_replica%d", n), timed(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Prepare(rm, opts); err != nil {
					b.Fatal(err)
				}
			}
		}))
		prep, err := core.Prepare(rm, opts)
		if err != nil {
			return err
		}
		if err := addChoose(s, fmt.Sprintf("decide_replica%d", n), prep, 1); err != nil {
			return err
		}
	}
	return nil
}

// addChoose adds the entry name, which times Engine.Choose at depth over
// prep's set at its initial belief.
func addChoose(s *suite, name string, prep *core.Prepared, depth int) error {
	engine, err := controller.NewEngine(prep.Model, depth, 1, prep.Set)
	if err != nil {
		return err
	}
	pi, err := prep.InitialBelief()
	if err != nil {
		return err
	}
	s.add(name, timed(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := engine.Choose(pi); err != nil {
				b.Fatal(err)
			}
		}
	}))
	return nil
}

// beliefRecorder is a batch decider that keeps a copy of the first limit
// beliefs it is asked to decide, in order, and decides them with the
// embedded controller.
type beliefRecorder struct {
	*controller.Bounded
	limit int
	seen  []pomdp.Belief
}

func (r *beliefRecorder) DecideBatch(pis []pomdp.Belief, out []controller.Decision) error {
	for _, pi := range pis {
		if len(r.seen) < r.limit {
			r.seen = append(r.seen, pi.Clone())
		}
	}
	return r.Bounded.DecideBatch(pis, out)
}

// campaignBeliefs returns the first m beliefs a seeded batched campaign
// (batch size 16, one worker) asks ctrl to decide.
func (fx *fixtures) campaignBeliefs(ctrl *controller.Bounded, m int) ([]pomdp.Belief, error) {
	rec := &beliefRecorder{Bounded: ctrl, limit: m}
	if _, err := fx.runner.RunCampaignOpts(ctrl, fx.initial, fx.compiled.ZombieStates, 64, rng.New(11), sim.CampaignOptions{
		Workers:      1,
		BatchSize:    16,
		BatchDecider: rec,
	}); err != nil {
		return nil, err
	}
	if len(rec.seen) < m {
		return nil, fmt.Errorf("campaign decided %d beliefs, want %d", len(rec.seen), m)
	}
	return rec.seen, nil
}

// benchBeliefUpdate measures the Bayes update (Eq. 4) with reused buffers
// (the controller's steady-state path) and with per-call allocation.
func benchBeliefUpdate(s *suite, fx *fixtures) error {
	prep, pi := fx.prep, fx.initial
	sc := pomdp.NewScratch(prep.Model)
	obsAction := prep.Source.MonitorAction
	succs := prep.Model.Successors(sc, pi, obsAction)
	if len(succs) == 0 {
		return fmt.Errorf("no successors for the monitor action")
	}
	o := succs[0].Obs

	dst := make(pomdp.Belief, len(pi))
	s.add("belief_update", timed(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := prep.Model.UpdateInto(sc, dst, pi, obsAction, o); err != nil {
				b.Fatal(err)
			}
		}
	}))
	s.add("belief_update_alloc", timed(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := prep.Model.Update(sc, pi, obsAction, o); err != nil {
				b.Fatal(err)
			}
		}
	}))
	return nil
}

// benchSolver measures one SOR sweep of the RA-Bound iteration matrix and
// the complete Eq. 5 fixed-point solve.
func benchSolver(s *suite, fx *fixtures) error {
	compiled := fx.compiled
	model, _, err := pomdp.WithTermination(compiled.Recovery.POMDP, pomdp.TerminationConfig{
		NullStates:           compiled.Recovery.NullStates,
		OperatorResponseTime: emn.OperatorResponseTime,
		RateReward:           compiled.Recovery.RateRewards,
	})
	if err != nil {
		return err
	}
	chain, reward, err := model.M.UniformChain()
	if err != nil {
		return err
	}
	kernel := linalg.NewSORKernel(chain)
	v := make(linalg.Vector, chain.Rows())
	s.add("gs_sweep", timed(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			kernel.Sweep(v, reward, 1, 1)
		}
	}))
	s.add("ra_solve", timed(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := bounds.RA(model, bounds.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}))
	return nil
}

// benchCampaigns times the paper's §5 Table 1 fault-injection loop over
// campaignEpisodes episodes: in batched stepping through the prepared
// store's controller (campaign_store) and through a store-less one
// (campaign_tree), and in per-episode stepping on one worker and on
// max(2, GOMAXPROCS) workers (campaign_w1, campaign_wN). Controllers are
// built outside the timed region; they are reusable across campaigns,
// since every episode begins with Reset.
func benchCampaigns(s *suite, fx *fixtures) error {
	prep := fx.prep
	cfg := core.ControllerConfig{Depth: 1}
	tree, err := controller.NewBounded(prep.Model, prep.Set, prep.BoundedConfig(cfg))
	if err != nil {
		return err
	}
	workers := max(2, runtime.GOMAXPROCS(0))
	pool := make([]controller.Controller, workers)
	for i := range pool {
		if pool[i], err = prep.NewController(cfg); err != nil {
			return err
		}
	}
	// pooled hands each worker the next controller of ctrls, round robin,
	// so concurrent workers never share one.
	pooled := func(workers, batch int, ctrls ...controller.Controller) func() Entry {
		var next atomic.Uint64
		return fx.campaign(campaignEpisodes, sim.CampaignOptions{
			Workers:   workers,
			BatchSize: batch,
			WorkerFactory: func() (controller.Controller, pomdp.Belief, error) {
				return ctrls[(next.Add(1)-1)%uint64(len(ctrls))], fx.initial, nil
			},
		})
	}
	s.add("campaign_store", pooled(1, 16, pool[0]))
	s.add("campaign_tree", pooled(1, 16, tree))
	s.add("campaign_w1", pooled(1, 0, pool[0]))
	s.add("campaign_wN", pooled(workers, 0, pool...))
	return nil
}
