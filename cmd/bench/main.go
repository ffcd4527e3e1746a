// Command bench measures the hot paths of the unified campaign engine on
// the EMN model and writes the results as machine-readable JSON
// (BENCH_campaign.json by default) so CI and benchstat-style tooling can
// track regressions without scraping `go test -bench` text output.
//
// Reported benchmarks:
//
//   - campaign_sequential / campaign_parallel — full fault-injection
//     campaigns through sim.RunCampaignOpts with the paper's bounded
//     controller (episodes/sec, ns/episode, allocs/episode)
//   - belief_update — pomdp.UpdateInto with reused buffers, the kernel the
//     controller runs on every observation (ns/op, allocs/op, B/op)
//   - belief_update_alloc — the allocating pomdp.Update path, for comparison
//   - gs_sweep — one Gauss-Seidel/SOR sweep of the RA-Bound iteration
//     (linalg.SORKernel.Sweep on the Eq. 5 uniform chain)
//   - ra_solve — the full RA-Bound fixed-point solve (bounds.RA)
//   - set_value_batch — bounds.Set.ValueBatch over a batch of beliefs with a
//     preallocated output slice (the batched engine's leaf evaluation)
//   - batch_decide — controller.Bounded.DecideBatch over the same batch with
//     reused decision buffers (the full batched Max-Avg expansion; every
//     belief distinct, so it is the overhead guard for duplicate merging)
//   - batch_decide_reachable — the same over 64 beliefs recorded from a
//     seeded batched campaign, with their natural repeats (the merged
//     expansion's common case). Both tree entries run a controller without
//     a decision store, so they time the expansion itself
//   - batch_decide_table — the same 64 reachable beliefs through
//     core.Prepared.NewController's controller, whose shared store has no
//     compiled nodes, with a warm online region: every belief is an online
//     hit
//   - fsc_decide — controller.Bounded.DecideBatch, with a compiled FSC
//     attached by UseFSC, over a batch of compiled-node beliefs: every
//     belief is answered by a compiled node before any set lock (compare
//     per decision against batch_decide for the compilation speedup)
//   - campaign_fsc — the batched campaign decided by an FSC-fronted
//     controller (FSC hits plus the other tiers' answers to its misses),
//     same figures as campaign_batched
//   - bounds_refine — one full HSVI-style offline bound-refinement run to
//     convergence on the bootstrapped EMN set (core.Prepared.RefineBounds)
//   - campaign_tiered_seed_bounds / campaign_tiered_refined_bounds — the
//     bound-quality pair: FSC-fronted campaigns at the strictest gap
//     threshold (0) over the bootstrapped seed set vs the HSVI-refined set;
//     their tree_nodes_expanded and ns_per_decision figures quantify how
//     much online tree work tighter offline bounds remove
//   - campaign_batched — the campaign engine in batched stepping mode
//     (CampaignOptions.BatchSize), same figures as campaign_sequential
//   - campaign_seq_w{1,2,4,8} / campaign_batched_w{1,2,4,8} — the
//     worker-scaling matrix: both stepping modes at 1/2/4/8 workers, so
//     scaling shape (not just single-point throughput) is tracked
//
// With -compare the report is also diffed against a previously committed
// baseline: any benchmark whose ns/op regresses by more than -threshold, or
// whose allocs/op grow at all, fails the run (exit 1) unless -report-only is
// set. With -runs N a candidate regression must reproduce in N independent
// measurement passes to fail — one clean pass exonerates it — which is what
// lets noisy CI runners hard-fail instead of report-only. This is the CI
// benchmark gate.
//
// Usage:
//
//	go run ./cmd/bench -out BENCH_campaign.json -mintime 1s
//	go run ./cmd/bench -mintime 50ms -out /tmp/b.json -compare BENCH_campaign.json -runs 2
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
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

// benchSchema identifies the BENCH_campaign.json document format.
const benchSchema = "bpomdp.bench/v1"

// scalingWorkers is the worker-count matrix measured for both stepping
// modes (campaign_seq_wN / campaign_batched_wN).
var scalingWorkers = []int{1, 2, 4, 8}

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

func main() {
	testing.Init()
	out := flag.String("out", "BENCH_campaign.json", "output JSON path (- for stdout)")
	mintime := flag.Duration("mintime", time.Second, "minimum measuring time per benchmark")
	episodes := flag.Int("episodes", 64, "episodes per campaign iteration")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "workers for the parallel campaign benchmark")
	compare := flag.String("compare", "", "baseline BENCH_campaign.json to diff against")
	reportOnly := flag.Bool("report-only", false, "with -compare, print regressions but do not fail")
	threshold := flag.Float64("threshold", 0.30, "with -compare, fractional ns/op regression tolerated before failing")
	runs := flag.Int("runs", 1, "with -compare, measurement passes a regression must appear in to fail; passes after a clean one are skipped")
	flag.Parse()

	if err := flag.Set("test.benchtime", mintime.String()); err != nil {
		fatal(err)
	}
	rep, err := run(*episodes, *workers)
	if err != nil {
		fatal(err)
	}
	rep.Timestamp = time.Now().UTC().Format(time.RFC3339)

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		_, _ = os.Stdout.Write(buf)
	} else {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(rep.Bench))
		names := []string{"campaign_sequential", "campaign_batched", "campaign_fsc",
			"campaign_tiered_seed_bounds", "campaign_tiered_refined_bounds", "bounds_refine", "campaign_parallel"}
		for _, w := range scalingWorkers {
			names = append(names, fmt.Sprintf("campaign_seq_w%d", w), fmt.Sprintf("campaign_batched_w%d", w))
		}
		names = append(names, "belief_update", "gs_sweep", "ra_solve", "set_value_batch", "batch_decide", "batch_decide_reachable", "batch_decide_table", "fsc_decide")
		for _, name := range names {
			e, ok := rep.Bench[name]
			if !ok {
				continue
			}
			if e.EpisodesPerSec > 0 {
				fmt.Printf("  %-22s %10.1f episodes/sec  %8d allocs/episode\n", name, e.EpisodesPerSec, e.AllocsPerEp)
			} else {
				fmt.Printf("  %-22s %10.0f ns/op  %8d allocs/op  %8d B/op\n", name, e.NsPerOp, e.AllocsPerOp, e.BytesPerOp)
			}
		}
	}

	if *compare != "" {
		old, err := loadReport(*compare)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("comparison against %s (threshold %+.0f%% ns/op, any alloc growth):\n", *compare, *threshold*100)
		printComparison(os.Stdout, old, rep)
		regressions := compareReports(old, rep, *threshold)
		// Noise tolerance: a candidate regression must reproduce in every
		// remaining measurement pass to count. A clean pass clears everything,
		// so the extra passes only run while candidates are alive.
		for pass := 2; pass <= *runs && len(regressions) > 0; pass++ {
			fmt.Printf("%d candidate regression(s); re-measuring (pass %d/%d)\n", len(regressions), pass, *runs)
			rerun, err := run(*episodes, *workers)
			if err != nil {
				fatal(err)
			}
			regressions = intersectRegressions(regressions, compareReports(old, rerun, *threshold))
		}
		if len(regressions) > 0 {
			fmt.Printf("%d regression(s) reproduced in all %d pass(es):\n", len(regressions), *runs)
			for _, r := range regressions {
				fmt.Println("  " + r.String())
			}
			if !*reportOnly {
				os.Exit(1)
			}
		} else {
			fmt.Println("no regressions")
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// run builds the EMN model once and measures every benchmark against it.
func run(episodes, workers int) (*Report, error) {
	compiled, err := emn.Build(emn.Config{})
	if err != nil {
		return nil, err
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

	prep, err := core.Prepare(compiled.Recovery, core.PrepareOptions{
		OperatorResponseTime: emn.OperatorResponseTime,
	})
	if err != nil {
		return nil, err
	}
	if _, err := prep.Bootstrap(10, controller.VariantAverage, 1, rng.New(3)); err != nil {
		return nil, err
	}

	if err := benchBeliefUpdate(rep, prep); err != nil {
		return nil, err
	}
	if err := benchSolver(rep, compiled); err != nil {
		return nil, err
	}
	if err := benchBatch(rep, compiled, prep); err != nil {
		return nil, err
	}
	if err := benchFSC(rep, compiled, prep, episodes); err != nil {
		return nil, err
	}
	if err := benchBounds(rep, compiled, episodes); err != nil {
		return nil, err
	}
	if err := benchCampaigns(rep, compiled, prep, episodes, workers); err != nil {
		return nil, err
	}
	return rep, nil
}

// benchBounds measures offline HSVI bound refinement and its effect on
// online tree work: two FSC-fronted campaigns at the strictest gap
// threshold, one over the bootstrapped seed set and one over the refined
// set. Refinement drives compile-time node gaps to ~0, so the refined
// variant serves most decisions from the table and expands far fewer
// Max-Avg tree nodes per decision — tree_nodes_expanded and ns_per_decision
// are the bound-quality figures the ROADMAP asks the gate to watch.
func benchBounds(rep *Report, compiled *arch.Compiled, episodes int) error {
	seedPrep := func() (*core.Prepared, error) {
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

	// bounds_refine: one full offline refinement run to convergence. Each
	// iteration refines a fresh bootstrapped set; the rebuild is excluded
	// from the timed region.
	rep.Bench["bounds_refine"] = entryOf(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p, err := seedPrep()
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := p.RefineBounds(core.RefineConfig{}); err != nil {
				b.Fatal(err)
			}
		}
	}))

	runner, err := sim.NewRunner(compiled.Recovery, 20000)
	if err != nil {
		return err
	}
	faults := compiled.ZombieStates
	measure := func(p *core.Prepared) (Entry, error) {
		fsc, err := p.CompileFSC(core.FSCConfig{Depth: 1})
		if err != nil {
			return Entry{}, err
		}
		dec, err := p.NewFSCDecider(fsc, core.ControllerConfig{Depth: 1, CollectStats: true}, 0)
		if err != nil {
			return Entry{}, err
		}
		initial, err := p.InitialBelief()
		if err != nil {
			return Entry{}, err
		}
		factory := func() (controller.Controller, pomdp.Belief, error) {
			return dec, initial, nil
		}
		opts := sim.CampaignOptions{Workers: 1, WorkerFactory: factory, BatchSize: 16}
		// Decision-work profile from one fixed-seed campaign, outside the
		// timed region.
		profile, err := runner.RunCampaignOpts(nil, nil, faults, episodes, rng.New(0), opts)
		if err != nil {
			return Entry{}, err
		}
		if profile.Decisions == 0 {
			return Entry{}, fmt.Errorf("tiered profiling campaign recorded no decisions")
		}
		e := entryOf(testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := runner.RunCampaignOpts(nil, nil, faults, episodes, rng.New(uint64(i)), opts)
				if err != nil {
					b.Fatal(err)
				}
				if res.Episodes != episodes {
					b.Fatalf("campaign completed %d/%d episodes", res.Episodes, episodes)
				}
			}
		}))
		e.Workers = 1
		e.Episodes = episodes
		e.NsPerEpisode = e.NsPerOp / float64(episodes)
		e.EpisodesPerSec = 1e9 / e.NsPerEpisode
		e.AllocsPerEp = e.AllocsPerOp / int64(episodes)
		e.Decisions = profile.Decisions
		e.NsPerDecision = e.NsPerOp / float64(profile.Decisions)
		e.TreeNodesExpanded = float64(profile.TreeNodes) / float64(profile.Decisions)
		return e, nil
	}

	seed, err := seedPrep()
	if err != nil {
		return err
	}
	if rep.Bench["campaign_tiered_seed_bounds"], err = measure(seed); err != nil {
		return err
	}
	refined, err := seedPrep()
	if err != nil {
		return err
	}
	if _, err := refined.RefineBounds(core.RefineConfig{}); err != nil {
		return err
	}
	if rep.Bench["campaign_tiered_refined_bounds"], err = measure(refined); err != nil {
		return err
	}
	return nil
}

// benchFSC measures the compiled finite-state-controller fast path: batched
// decisions answered from the table (fsc_decide — the per-decision number to
// hold against batch_decide), and a full batched campaign decided by an
// FSC-fronted controller (campaign_fsc). The table is compiled once outside the
// timed regions with a permissive gap threshold, so the campaign splits
// decisions across both tiers the way a deployed daemon would.
func benchFSC(rep *Report, compiled *arch.Compiled, prep *core.Prepared, episodes int) error {
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
	rep.Bench["fsc_decide"] = entryOf(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := dec.DecideBatch(beliefs, decisions); err != nil {
				b.Fatal(err)
			}
		}
	}))

	runner, err := sim.NewRunner(compiled.Recovery, 20000)
	if err != nil {
		return err
	}
	initial, err := prep.InitialBelief()
	if err != nil {
		return err
	}
	faults := compiled.ZombieStates
	rep.Bench["campaign_fsc"] = func() Entry {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			factory := func() (controller.Controller, pomdp.Belief, error) {
				return dec, initial, nil
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := runner.RunCampaignOpts(nil, nil, faults, episodes, rng.New(uint64(i)), sim.CampaignOptions{
					Workers:       1,
					WorkerFactory: factory,
					BatchSize:     16,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Episodes != episodes {
					b.Fatalf("campaign completed %d/%d episodes", res.Episodes, episodes)
				}
			}
		})
		e := entryOf(r)
		e.Workers = 1
		e.Episodes = episodes
		e.NsPerEpisode = e.NsPerOp / float64(episodes)
		e.EpisodesPerSec = 1e9 / e.NsPerEpisode
		e.AllocsPerEp = e.AllocsPerOp / int64(episodes)
		return e
	}()
	return nil
}

// benchBatch measures the batched leaf evaluation (Set.ValueBatch over the
// state-major plane columns) and the full batched Max-Avg expansion
// (Bounded.DecideBatch), over dense random beliefs that are all distinct and
// over beliefs a batched campaign actually decides. All run with
// preallocated output buffers — the campaign's steady state — so allocs/op
// should be zero.
func benchBatch(rep *Report, compiled *arch.Compiled, prep *core.Prepared) error {
	const batch = 64
	n := prep.Model.NumStates()
	stream := rng.New(7)
	beliefs := make([]pomdp.Belief, batch)
	for i := range beliefs {
		pi := make(pomdp.Belief, n)
		sum := 0.0
		for s := range pi {
			pi[s] = stream.Float64()
			sum += pi[s]
		}
		for s := range pi {
			pi[s] /= sum
		}
		beliefs[i] = pi
	}

	vals := make([]float64, batch)
	rep.Bench["set_value_batch"] = entryOf(testing.Benchmark(func(b *testing.B) {
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
	reachable, err := campaignBeliefs(compiled, prep, tree, batch)
	if err != nil {
		return err
	}
	tabled, err := prep.NewController(cfg)
	if err != nil {
		return err
	}
	decisions := make([]controller.Decision, batch)
	measure := func(ctrl *controller.Bounded, beliefs []pomdp.Belief) (Entry, error) {
		// Warm once outside the timed region so the engine's per-level
		// scratch is sized (and the online region filled) before measurement.
		if err := ctrl.DecideBatch(beliefs, decisions); err != nil {
			return Entry{}, err
		}
		return entryOf(testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := ctrl.DecideBatch(beliefs, decisions); err != nil {
					b.Fatal(err)
				}
			}
		})), nil
	}
	if rep.Bench["batch_decide"], err = measure(tree, beliefs); err != nil {
		return err
	}
	if rep.Bench["batch_decide_reachable"], err = measure(tree, reachable); err != nil {
		return err
	}
	if rep.Bench["batch_decide_table"], err = measure(tabled, reachable); err != nil {
		return err
	}
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
func campaignBeliefs(compiled *arch.Compiled, prep *core.Prepared, ctrl *controller.Bounded, m int) ([]pomdp.Belief, error) {
	runner, err := sim.NewRunner(compiled.Recovery, 20000)
	if err != nil {
		return nil, err
	}
	initial, err := prep.InitialBelief()
	if err != nil {
		return nil, err
	}
	rec := &beliefRecorder{Bounded: ctrl, limit: m}
	if _, err := runner.RunCampaignOpts(ctrl, initial, compiled.ZombieStates, 64, rng.New(11), sim.CampaignOptions{
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
func benchBeliefUpdate(rep *Report, prep *core.Prepared) error {
	sc := pomdp.NewScratch(prep.Model)
	pi, err := prep.InitialBelief()
	if err != nil {
		return err
	}
	obsAction := prep.Source.MonitorAction
	succs := prep.Model.Successors(sc, pi, obsAction)
	if len(succs) == 0 {
		return fmt.Errorf("no successors for the monitor action")
	}
	o := succs[0].Obs

	dst := make(pomdp.Belief, len(pi))
	rep.Bench["belief_update"] = entryOf(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := prep.Model.UpdateInto(sc, dst, pi, obsAction, o); err != nil {
				b.Fatal(err)
			}
		}
	}))
	rep.Bench["belief_update_alloc"] = entryOf(testing.Benchmark(func(b *testing.B) {
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
func benchSolver(rep *Report, compiled *arch.Compiled) error {
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
	rep.Bench["gs_sweep"] = entryOf(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			kernel.Sweep(v, reward, 1, 1)
		}
	}))
	rep.Bench["ra_solve"] = entryOf(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := bounds.RA(model, bounds.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}))
	return nil
}

// benchCampaigns measures full fault-injection campaigns through the unified
// engine, sequentially and with the requested worker count. Controllers are
// pooled outside the timed region (they are reusable across campaigns: every
// episode begins with Reset), so the numbers isolate the engine and episode
// loop.
func benchCampaigns(rep *Report, compiled *arch.Compiled, prep *core.Prepared, episodes, workers int) error {
	runner, err := sim.NewRunner(compiled.Recovery, 20000)
	if err != nil {
		return err
	}
	if workers < 1 {
		workers = 1
	}
	// The scaling matrix below needs a controller per worker up to its
	// largest rung, whatever -workers says.
	poolSize := workers
	for _, w := range scalingWorkers {
		if w > poolSize {
			poolSize = w
		}
	}
	pool := make([]controller.Controller, poolSize)
	initial, err := prep.InitialBelief()
	if err != nil {
		return err
	}
	for i := range pool {
		if pool[i], err = prep.NewController(core.ControllerConfig{Depth: 1}); err != nil {
			return err
		}
	}
	faults := compiled.ZombieStates

	campaign := func(b *testing.B, w int) {
		b.Helper()
		b.ReportAllocs()
		var next atomic.Uint64
		factory := func() (controller.Controller, pomdp.Belief, error) {
			idx := int(next.Add(1)-1) % len(pool)
			return pool[idx], initial, nil
		}
		// Exclude the closure setup from the measurement, so allocs/op does
		// not depend on the iteration count (short -mintime runs must match
		// the committed long-run baseline exactly).
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := runner.RunCampaignOpts(nil, nil, faults, episodes, rng.New(uint64(i)), sim.CampaignOptions{
				Workers:       w,
				WorkerFactory: factory,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Episodes != episodes {
				b.Fatalf("campaign completed %d/%d episodes", res.Episodes, episodes)
			}
		}
	}
	finish := func(r testing.BenchmarkResult, w int) Entry {
		e := entryOf(r)
		e.Workers = w
		e.Episodes = episodes
		e.NsPerEpisode = e.NsPerOp / float64(episodes)
		e.EpisodesPerSec = 1e9 / e.NsPerEpisode
		e.AllocsPerEp = e.AllocsPerOp / int64(episodes)
		return e
	}
	rep.Bench["campaign_sequential"] = finish(testing.Benchmark(func(b *testing.B) { campaign(b, 1) }), 1)
	if workers > 1 {
		rep.Bench["campaign_parallel"] = finish(testing.Benchmark(func(b *testing.B) { campaign(b, workers) }), workers)
	}

	// Worker-scaling matrix: per-episode stepping and batched stepping at
	// 1/2/4/8 workers. On a single-core runner the rungs mostly measure
	// scheduling overhead, but the committed matrix lets multi-core machines
	// diff scaling shape, not just single-point throughput.
	batched := func(b *testing.B, w int) {
		b.Helper()
		b.ReportAllocs()
		var next atomic.Uint64
		factory := func() (controller.Controller, pomdp.Belief, error) {
			idx := int(next.Add(1)-1) % len(pool)
			return pool[idx], initial, nil
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := runner.RunCampaignOpts(nil, nil, faults, episodes, rng.New(uint64(i)), sim.CampaignOptions{
				Workers:       w,
				WorkerFactory: factory,
				BatchSize:     16,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Episodes != episodes {
				b.Fatalf("campaign completed %d/%d episodes", res.Episodes, episodes)
			}
		}
	}
	for _, w := range scalingWorkers {
		w := w
		rep.Bench[fmt.Sprintf("campaign_seq_w%d", w)] = finish(testing.Benchmark(func(b *testing.B) { campaign(b, w) }), w)
		rep.Bench[fmt.Sprintf("campaign_batched_w%d", w)] = finish(testing.Benchmark(func(b *testing.B) { batched(b, w) }), w)
	}

	// Batched stepping: one worker advances a stripe of live episodes
	// through DecideBatch, sharing the Max-Avg tree expansion across them.
	batchCtrl, err := prep.NewController(core.ControllerConfig{Depth: 1})
	if err != nil {
		return err
	}
	rep.Bench["campaign_batched"] = finish(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		factory := func() (controller.Controller, pomdp.Belief, error) {
			return batchCtrl, initial, nil
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := runner.RunCampaignOpts(nil, nil, faults, episodes, rng.New(uint64(i)), sim.CampaignOptions{
				Workers:       1,
				WorkerFactory: factory,
				BatchSize:     16,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Episodes != episodes {
				b.Fatalf("campaign completed %d/%d episodes", res.Episodes, episodes)
			}
		}
	}), 1)
	return nil
}
