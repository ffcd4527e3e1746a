package experiments

import (
	"errors"
	"math"
	"testing"

	"bpomdp/internal/bounds"
	"bpomdp/internal/controller"
	"bpomdp/internal/core"
	"bpomdp/internal/emn"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
	"bpomdp/internal/sim"
)

// The ablation tests run the design choices EXPERIMENTS.md quotes at a
// fixed seed and a fixed count, assert the shape of each result and log
// its figures, so every quoted number is reproducible with
//
//	go test -count=1 -v -run '^TestAblation' ./internal/experiments

// TestAblationLeaf compares leaf evaluators at equal depth 1 on one zombie
// campaign: the zero leaf (purely myopic) never pays for a restart and
// observes until the step budget runs out, the SRDS'05 heuristic leaf
// recovers every injection, and the RA-based bounded controller recovers
// them at a lower mean cost — the paper's central comparison.
func TestAblationLeaf(t *testing.T) {
	if testing.Short() {
		t.Skip("EMN campaign in -short mode")
	}
	const episodes, budget = 200, 200
	compiled, err := emn.Build(emn.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rm := compiled.Recovery
	runner, err := sim.NewRunner(rm, budget)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Table1Config{}.withDefaults()
	// run injects the same episode stream under each controller and counts
	// the timeouts; any other episode error is fatal.
	run := func(ctrl controller.Controller, initial pomdp.Belief) (res sim.CampaignResult, timeouts int) {
		stream := rng.New(2)
		for i := 0; i < episodes; i++ {
			ep := stream.SplitN("ep", i)
			fault := compiled.ZombieStates[ep.IntN(len(compiled.ZombieStates))]
			r, err := runner.RunEpisode(ctrl, initial, fault, ep)
			switch {
			case errors.Is(err, sim.ErrTimedOut):
				timeouts++
			case err != nil:
				t.Fatal(err)
			default:
				res.Episodes++
				if r.Recovered {
					res.Recovered++
				}
				res.Cost.Add(r.Cost)
			}
		}
		return res, timeouts
	}

	zeroCtrl, err := controller.NewHeuristic(rm.POMDP, controller.HeuristicConfig{
		Depth:                  1,
		NullStates:             rm.NullStates,
		TerminationProbability: cfg.TerminationProbability,
		Leaf:                   pomdp.ValueFunc(func(pomdp.Belief) float64 { return 0 }),
	})
	if err != nil {
		t.Fatal(err)
	}
	uniform := pomdp.UniformBelief(rm.POMDP.NumStates())
	_, zeroTimeouts := run(zeroCtrl, uniform)
	srdsCtrl, srdsInitial, err := buildAlgorithm(AlgoHeuristic1, compiled, cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	srds, _ := run(srdsCtrl, srdsInitial)
	boundedCtrl, boundedInitial, err := buildAlgorithm(AlgoBounded, compiled, cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	bounded, _ := run(boundedCtrl, boundedInitial)
	t.Logf("%d zombie injections, step budget %d: zero leaf %d timed out; srds05 leaf recovered %d, cost/fault %.2f; bounded recovered %d, cost/fault %.2f",
		episodes, budget, zeroTimeouts, srds.Recovered, srds.Cost.Mean(), bounded.Recovered, bounded.Cost.Mean())

	if zeroTimeouts != episodes {
		t.Errorf("zero leaf timed out on %d/%d injections, want all", zeroTimeouts, episodes)
	}
	if srds.Recovered != episodes {
		t.Errorf("srds05 leaf recovered %d/%d injections, want all", srds.Recovered, episodes)
	}
	if bounded.Recovered != episodes {
		t.Errorf("bounded controller recovered %d/%d injections, want all", bounded.Recovered, episodes)
	}
	if bounded.Cost.Mean() >= srds.Cost.Mean() {
		t.Errorf("bounded cost/fault %.2f not below srds05 leaf's %.2f", bounded.Cost.Mean(), srds.Cost.Mean())
	}
}

// TestAblationFreeMonitors removes the monitor sweep cost, violating
// Property 1(a): the bounded controller still terminates (the a_T
// tie-break) and recovers every injection, but lingers in monitoring.
func TestAblationFreeMonitors(t *testing.T) {
	if testing.Short() {
		t.Skip("EMN campaign in -short mode")
	}
	monitorCalls := func(emnCfg emn.Config) float64 {
		res, err := Table1(Table1Config{Episodes: 200, Seed: 1, Algorithms: []string{AlgoBounded}, EMN: emnCfg})
		if err != nil {
			t.Fatal(err)
		}
		row := res.Rows[0]
		if row.Recovered != row.Episodes {
			t.Errorf("FreeMonitors=%v: recovered %d/%d", emnCfg.FreeMonitors, row.Recovered, row.Episodes)
		}
		return row.MonitorCalls.Mean()
	}
	priced, free := monitorCalls(emn.Config{}), monitorCalls(emn.Config{FreeMonitors: true})
	t.Logf("200 injections: monitor calls/fault %.2f priced, %.2f free", priced, free)
	if free < 2*priced {
		t.Errorf("free sweeps make %.2f monitor calls/fault, want at least twice the priced %.2f", free, priced)
	}
}

// TestAblationBoundCapacity caps the hyperplane store (Section 4.3's
// finite-storage strategy): after 200 Average bootstrap iterations at
// depth 1, a cap of 8 planes leaves the bound far looser than an uncapped
// store, and a cap of 32 nearly matches it.
func TestAblationBoundCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("EMN bootstrap in -short mode")
	}
	const iterations = 200
	bound := func(capacity int) (cost float64, vectors int) {
		prep := preparedEMN(t, core.PrepareOptions{BoundCapacity: capacity})
		last := bootstrap(t, prep, iterations)[iterations-1]
		return UpperBoundOnCost(last.BoundAtUniform), last.Vectors
	}
	unlimited, unlimitedN := bound(0)
	cap8, cap8N := bound(8)
	cap32, cap32N := bound(32)
	t.Logf("upper bound on cost after %d iterations: uncapped %.1f (%d planes), cap 8 %.1f (%d), cap 32 %.1f (%d)",
		iterations, unlimited, unlimitedN, cap8, cap8N, cap32, cap32N)
	if cap8 < 4*unlimited {
		t.Errorf("cap 8 bound %.1f is under 4× the uncapped %.1f", cap8, unlimited)
	}
	if cap32 > 1.1*unlimited {
		t.Errorf("cap 32 bound %.1f is over 10%% above the uncapped %.1f", cap32, unlimited)
	}
}

// TestAblationSeedPlane compares the RA-Bound (uniform random policy) with a
// tilted fixed-policy plane as the bootstrap's starting bound — the
// state-independent generalisation the RA proof admits. The seeds start
// apart and end within 1% of each other after 40 iterations.
func TestAblationSeedPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("EMN bootstrap in -short mode")
	}
	const iterations = 40
	series := func(tilted bool) (first, last float64) {
		prep := preparedEMN(t, core.PrepareOptions{})
		if tilted {
			weights := make([]float64, prep.Model.NumActions())
			for a := range weights {
				weights[a] = 1 // reboots, observe
			}
			for a := 0; a < 5; a++ {
				weights[a] = 2 // restarts
			}
			weights[prep.Terminate.Action] = 3
			plane, err := bounds.FixedPolicy(prep.Model, weights, bounds.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if prep.Set, err = bounds.NewSet(prep.Model.NumStates(), plane); err != nil {
				t.Fatal(err)
			}
		}
		s := bootstrap(t, prep, iterations)
		return UpperBoundOnCost(s[0].BoundAtUniform), UpperBoundOnCost(s[iterations-1].BoundAtUniform)
	}
	raFirst, raLast := series(false)
	tiltedFirst, tiltedLast := series(true)
	t.Logf("upper bound on cost: RA seed %.1f after 1 iteration, %.1f after %d; tilted seed %.1f after 1, %.1f after %d",
		raFirst, raLast, iterations, tiltedFirst, tiltedLast, iterations)
	if math.Abs(tiltedFirst-raFirst) < 0.05*raFirst {
		t.Errorf("seeds agree at iteration 1 (RA %.1f, tilted %.1f); the tilt has no effect", raFirst, tiltedFirst)
	}
	if math.Abs(tiltedLast-raLast) > 0.01*raLast {
		t.Errorf("after %d iterations the seeds are over 1%% apart (RA %.1f, tilted %.1f)", iterations, raLast, tiltedLast)
	}
}

// preparedEMN prepares the paper's EMN model with opts and its operator
// response time.
func preparedEMN(t *testing.T, opts core.PrepareOptions) *core.Prepared {
	t.Helper()
	compiled, err := emn.Build(emn.Config{})
	if err != nil {
		t.Fatal(err)
	}
	opts.OperatorResponseTime = emn.OperatorResponseTime
	prep, err := core.Prepare(compiled.Recovery, opts)
	if err != nil {
		t.Fatal(err)
	}
	return prep
}

// bootstrap runs n Average bootstrap iterations at depth 1 on prep's set,
// seeded 1, and returns their stats.
func bootstrap(t *testing.T, prep *core.Prepared, n int) []controller.IterationStats {
	t.Helper()
	boot, err := prep.NewBootstrapper(controller.VariantAverage, 1, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	series, err := boot.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	return series
}
