// Benchmarks regenerating the paper's evaluation (Section 5), plus
// micro-benchmarks of the computational kernels and ablations of the design
// choices called out in DESIGN.md.
//
//	go test -bench=. -benchmem
//
// Per-fault averages are attached as custom benchmark metrics
// (cost/fault, recoverySec/fault, …), so a bench run reads like a Table 1
// row; use cmd/emn-faultinject and cmd/emn-bounds for the full paper-scale
// tables.
package bpomdp

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"bpomdp/internal/arch"
	"bpomdp/internal/bounds"
	"bpomdp/internal/controller"
	"bpomdp/internal/core"
	"bpomdp/internal/emn"
	"bpomdp/internal/experiments"
	"bpomdp/internal/linalg"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
	"bpomdp/internal/sim"
)

// ---------------------------------------------------------------------------
// Table 1: per-fault recovery metrics on EMN, one sub-benchmark per
// algorithm row. Each b.N iteration is one zombie-fault injection episode.
// ---------------------------------------------------------------------------

func BenchmarkTable1FaultInjection(b *testing.B) {
	for _, algo := range append(experiments.DefaultAlgorithms(), experiments.AlgoRandom) {
		b.Run(algo, func(b *testing.B) {
			benchCampaign(b, algo, emn.Config{})
		})
	}
}

func benchCampaign(b *testing.B, algo string, emnCfg emn.Config) {
	b.Helper()
	compiled, err := emn.Build(emnCfg)
	if err != nil {
		b.Fatal(err)
	}
	runner, err := sim.NewRunner(compiled.Recovery, 20000)
	if err != nil {
		b.Fatal(err)
	}
	ctrl, initial, err := experiments.BuildAlgorithm(algo, compiled, experiments.Table1Config{
		TerminationProbability: 0.9999,
		BootstrapRuns:          10,
		BootstrapDepth:         2,
		BoundedDepth:           1,
	}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	stream := rng.New(2)
	faults := compiled.ZombieStates

	var agg sim.CampaignResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ep := stream.SplitN("bench-episode", i)
		fault := faults[ep.IntN(len(faults))]
		res, err := runner.RunEpisode(ctrl, initial, fault, ep)
		if err != nil {
			b.Fatal(err)
		}
		// Premature termination is reported, not fatal: a 0.9999
		// termination threshold *means* a ~1e-4 residual risk per episode,
		// which auto-scaled benchmark iteration counts will eventually hit.
		if res.Recovered {
			agg.Recovered++
		}
		agg.Episodes++
		agg.Cost.Add(res.Cost)
		agg.RecoveryTime.Add(res.RecoveryTime)
		agg.ResidualTime.Add(res.ResidualTime)
		agg.AlgoTimeMs.Add(float64(res.AlgoTime) / float64(time.Millisecond))
		agg.Actions.Add(float64(res.Actions))
		agg.MonitorCalls.Add(float64(res.MonitorCalls))
	}
	b.ReportMetric(agg.Cost.Mean(), "cost/fault")
	b.ReportMetric(agg.RecoveryTime.Mean(), "recoverySec/fault")
	b.ReportMetric(agg.ResidualTime.Mean(), "residualSec/fault")
	b.ReportMetric(agg.AlgoTimeMs.Mean(), "algoMs/fault")
	b.ReportMetric(agg.Actions.Mean(), "actions/fault")
	b.ReportMetric(agg.MonitorCalls.Mean(), "monitorCalls/fault")
	b.ReportMetric(100*float64(agg.Recovered)/float64(agg.Episodes), "recovered%")
}

// ---------------------------------------------------------------------------
// Figure 5(a)/(b): iterative bound improvement. Each b.N iteration is one
// bootstrap episode; the final bound tightness and vector count are
// reported as metrics.
// ---------------------------------------------------------------------------

func BenchmarkFig5aBoundsImprovement(b *testing.B) {
	for _, variant := range []controller.BootstrapVariant{controller.VariantRandom, controller.VariantAverage} {
		b.Run(variant.String(), func(b *testing.B) {
			boot := newEMNBootstrapper(b, variant, 1)
			b.ResetTimer()
			var last controller.IterationStats
			for i := 0; i < b.N; i++ {
				st, err := boot.Iterate()
				if err != nil {
					b.Fatal(err)
				}
				last = st
			}
			b.ReportMetric(experiments.UpperBoundOnCost(last.BoundAtUniform), "upperBoundCost")
		})
	}
}

func BenchmarkFig5bBoundVectors(b *testing.B) {
	for _, variant := range []controller.BootstrapVariant{controller.VariantRandom, controller.VariantAverage} {
		b.Run(variant.String(), func(b *testing.B) {
			boot := newEMNBootstrapper(b, variant, 1)
			b.ResetTimer()
			var last controller.IterationStats
			for i := 0; i < b.N; i++ {
				st, err := boot.Iterate()
				if err != nil {
					b.Fatal(err)
				}
				last = st
			}
			b.ReportMetric(float64(last.Vectors), "vectors")
			b.ReportMetric(float64(last.Vectors)/float64(b.N), "vectors/iter")
		})
	}
}

func newEMNBootstrapper(b *testing.B, variant controller.BootstrapVariant, depth int) *controller.Bootstrapper {
	b.Helper()
	compiled, err := emn.Build(emn.Config{})
	if err != nil {
		b.Fatal(err)
	}
	prep, err := core.Prepare(compiled.Recovery, core.PrepareOptions{
		OperatorResponseTime: emn.OperatorResponseTime,
	})
	if err != nil {
		b.Fatal(err)
	}
	boot, err := prep.NewBootstrapper(variant, depth, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	return boot
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the computational kernels.
// ---------------------------------------------------------------------------

func preparedEMN(b *testing.B) *core.Prepared {
	b.Helper()
	compiled, err := emn.Build(emn.Config{})
	if err != nil {
		b.Fatal(err)
	}
	prep, err := core.Prepare(compiled.Recovery, core.PrepareOptions{
		OperatorResponseTime: emn.OperatorResponseTime,
	})
	if err != nil {
		b.Fatal(err)
	}
	return prep
}

func BenchmarkTreeExpansion(b *testing.B) {
	for depth := 1; depth <= 3; depth++ {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			prep := preparedEMN(b)
			engine, err := controller.NewEngine(prep.Model, depth, 1, prep.Set)
			if err != nil {
				b.Fatal(err)
			}
			pi, err := prep.InitialBelief()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Choose(pi); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations.
// ---------------------------------------------------------------------------

// BenchmarkAblationLeafEvaluator compares the bounded leaf against the
// SRDS'05 heuristic leaf at equal depth — the paper's central comparison.
func BenchmarkAblationLeafEvaluator(b *testing.B) {
	b.Run("bound-leaf", func(b *testing.B) {
		benchCampaign(b, experiments.AlgoBounded, emn.Config{})
	})
	b.Run("heuristic-leaf", func(b *testing.B) {
		benchCampaign(b, experiments.AlgoHeuristic1, emn.Config{})
	})
}

// BenchmarkAblationFreeMonitors removes the monitor sweep cost, violating
// Property 1(a): the bounded controller still terminates (the a_T
// tie-break), but lingers far longer in monitoring.
func BenchmarkAblationFreeMonitors(b *testing.B) {
	b.Run("priced-sweeps", func(b *testing.B) {
		benchCampaign(b, experiments.AlgoBounded, emn.Config{})
	})
	b.Run("free-sweeps", func(b *testing.B) {
		benchCampaign(b, experiments.AlgoBounded, emn.Config{FreeMonitors: true})
	})
}

// BenchmarkScalingSystemSize grows arch-generated systems (more hosts and
// load-balanced replicas → more states) and reports the off-line RA-Bound
// solve and the on-line depth-1 decision — the two costs Section 4.3
// discusses ("standard, numerically stable linear system solvers for models
// with up to hundreds of thousands of states"; the decision loop stays
// interactive because it runs on the original state space).
func BenchmarkScalingSystemSize(b *testing.B) {
	build := func(replicas int) *core.RecoveryModel {
		sys := &arch.System{
			Name:            fmt.Sprintf("scale-%d", replicas),
			MonitorDuration: 5,
			MonitorCost:     0.5,
			CrashFaults:     true,
			ZombieFaults:    true,
			HostFaults:      true,
		}
		stage := arch.Stage{}
		for i := 0; i < replicas; i++ {
			host := fmt.Sprintf("h%d", i)
			comp := fmt.Sprintf("app%d", i)
			sys.Hosts = append(sys.Hosts, arch.Host{Name: host, RebootDuration: 300})
			sys.Components = append(sys.Components, arch.Component{Name: comp, Host: host, RestartDuration: 60})
			sys.ComponentMonitors = append(sys.ComponentMonitors, arch.ComponentMonitor{
				Name: "mon" + comp, Target: comp,
			})
			stage = append(stage, arch.Alternative{Component: comp, Weight: 1})
		}
		sys.Paths = []arch.Path{{Name: "p", TrafficShare: 1, Stages: []arch.Stage{stage}}}
		sys.PathMonitors = []arch.PathMonitor{{Name: "probe", Path: "p"}}
		compiled, err := sys.Compile()
		if err != nil {
			b.Fatal(err)
		}
		return compiled.Recovery
	}
	for _, replicas := range []int{4, 16, 64} {
		rm := build(replicas)
		b.Run(fmt.Sprintf("states=%d/ra-solve", rm.POMDP.NumStates()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Prepare(rm, core.PrepareOptions{OperatorResponseTime: 3600}); err != nil {
					b.Fatal(err)
				}
			}
		})
		prep, err := core.Prepare(rm, core.PrepareOptions{OperatorResponseTime: 3600})
		if err != nil {
			b.Fatal(err)
		}
		engine, err := controller.NewEngine(prep.Model, 1, 1, prep.Set)
		if err != nil {
			b.Fatal(err)
		}
		pi, err := prep.InitialBelief()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("states=%d/decision", rm.POMDP.NumStates()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.Choose(pi); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDiscounting revisits the paper's Section 2 argument that
// discounting is wrong for recovery: lower β undervalues future recovery
// progress, and the bounded controller's behavior shifts accordingly.
func BenchmarkAblationDiscounting(b *testing.B) {
	for _, beta := range []float64{0.99, 0.999, 1.0} {
		b.Run(fmt.Sprintf("beta=%v", beta), func(b *testing.B) {
			compiled, err := emn.Build(emn.Config{})
			if err != nil {
				b.Fatal(err)
			}
			prep, err := core.Prepare(compiled.Recovery, core.PrepareOptions{
				OperatorResponseTime: emn.OperatorResponseTime,
				Bounds:               bounds.Options{Beta: beta},
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := prep.Bootstrap(10, controller.VariantAverage, 2, rng.New(1)); err != nil {
				b.Fatal(err)
			}
			ctrl, err := prep.NewController(core.ControllerConfig{Depth: 1, ImproveOnline: true})
			if err != nil {
				b.Fatal(err)
			}
			initial, err := prep.InitialBelief()
			if err != nil {
				b.Fatal(err)
			}
			runner, err := sim.NewRunner(compiled.Recovery, 20000)
			if err != nil {
				b.Fatal(err)
			}
			stream := rng.New(2)
			var cost, recovered float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ep := stream.SplitN("ep", i)
				fault := compiled.ZombieStates[ep.IntN(len(compiled.ZombieStates))]
				res, err := runner.RunEpisode(ctrl, initial, fault, ep)
				if err != nil {
					b.Fatal(err)
				}
				cost += res.Cost
				if res.Recovered {
					recovered++
				}
			}
			b.ReportMetric(cost/float64(b.N), "cost/fault")
			b.ReportMetric(100*recovered/float64(b.N), "recovered%")
		})
	}
}

// BenchmarkAblationHeuristicLeaf compares leaf evaluators at equal depth 1:
// the zero leaf (purely myopic), the SRDS'05 heuristic, and the RA-based
// bound — isolating exactly what the leaf contributes.
func BenchmarkAblationHeuristicLeaf(b *testing.B) {
	leaves := []struct {
		name string
		leaf func(prep *core.Prepared) pomdp.ValueFn
	}{
		{"zero", func(*core.Prepared) pomdp.ValueFn {
			return pomdp.ValueFunc(func(pomdp.Belief) float64 { return 0 })
		}},
		{"srds05", func(*core.Prepared) pomdp.ValueFn { return nil }}, // controller default
	}
	compiledBase, err := emn.Build(emn.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for _, l := range leaves {
		b.Run(l.name, func(b *testing.B) {
			rm := compiledBase.Recovery
			var leaf pomdp.ValueFn
			if l.leaf != nil {
				leaf = l.leaf(nil)
			}
			ctrl, err := controller.NewHeuristic(rm.POMDP, controller.HeuristicConfig{
				Depth:                  1,
				NullStates:             rm.NullStates,
				TerminationProbability: 0.9999,
				Leaf:                   leaf,
			})
			if err != nil {
				b.Fatal(err)
			}
			// A short step budget: the zero (myopic) leaf never pays for a
			// restart, observes forever, and times out — that failure IS
			// the ablation's finding, so it is reported, not fatal.
			runner, err := sim.NewRunner(rm, 200)
			if err != nil {
				b.Fatal(err)
			}
			initial := pomdp.UniformBelief(rm.POMDP.NumStates())
			stream := rng.New(2)
			var cost float64
			var timeouts int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ep := stream.SplitN("ep", i)
				fault := compiledBase.ZombieStates[ep.IntN(len(compiledBase.ZombieStates))]
				res, err := runner.RunEpisode(ctrl, initial, fault, ep)
				switch {
				case errors.Is(err, sim.ErrTimedOut):
					timeouts++
				case err != nil:
					b.Fatal(err)
				default:
					cost += res.Cost
				}
			}
			if done := b.N - timeouts; done > 0 {
				b.ReportMetric(cost/float64(done), "cost/fault")
			}
			b.ReportMetric(100*float64(timeouts)/float64(b.N), "timeout%")
		})
	}
	b.Run("ra-bound", func(b *testing.B) {
		benchCampaign(b, experiments.AlgoBounded, emn.Config{})
	})
}

// BenchmarkAblationSeedPlane compares the RA-Bound (uniform random policy)
// against a tilted fixed-policy plane as the bootstrap's starting bound —
// the state-independent generalization the RA proof admits.
func BenchmarkAblationSeedPlane(b *testing.B) {
	seeds := map[string]func(prep *core.Prepared) (linalg.Vector, error){
		"uniform-RA": func(prep *core.Prepared) (linalg.Vector, error) {
			return prep.RA.Clone(), nil
		},
		"tilted-fixed-policy": func(prep *core.Prepared) (linalg.Vector, error) {
			weights := make([]float64, prep.Model.NumActions())
			for a := range weights {
				weights[a] = 1 // reboots, observe
			}
			for a := 0; a < 5; a++ {
				weights[a] = 2 // restarts
			}
			weights[prep.Terminate.Action] = 3
			return bounds.FixedPolicy(prep.Model, weights, bounds.Options{})
		},
	}
	for name, seed := range seeds {
		b.Run(name, func(b *testing.B) {
			prep := preparedEMN(b)
			plane, err := seed(prep)
			if err != nil {
				b.Fatal(err)
			}
			set, err := bounds.NewSet(prep.Model.NumStates(), plane)
			if err != nil {
				b.Fatal(err)
			}
			boot, err := controller.NewBootstrapper(prep.Model, set, controller.BootstrapConfig{
				Variant:                  controller.VariantAverage,
				Depth:                    1,
				FaultStates:              prep.Source.FaultStates(),
				NullStates:               prep.Source.NullStates,
				TerminateAction:          prep.Terminate.Action,
				InitialObservationAction: prep.Source.MonitorAction,
			}, rng.New(1))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var last controller.IterationStats
			for i := 0; i < b.N; i++ {
				st, err := boot.Iterate()
				if err != nil {
					b.Fatal(err)
				}
				last = st
			}
			b.ReportMetric(experiments.UpperBoundOnCost(last.BoundAtUniform), "upperBoundCost")
		})
	}
}

// BenchmarkAblationSOR sweeps the successive-over-relaxation factor of the
// RA-Bound's Gauss-Seidel solve.
func BenchmarkAblationSOR(b *testing.B) {
	compiled, err := emn.Build(emn.Config{})
	if err != nil {
		b.Fatal(err)
	}
	model, _, err := pomdp.WithTermination(compiled.Recovery.POMDP, pomdp.TerminationConfig{
		NullStates:           compiled.Recovery.NullStates,
		OperatorResponseTime: emn.OperatorResponseTime,
		RateReward:           compiled.Recovery.RateRewards,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, omega := range []float64{0.8, 1.0, 1.2, 1.5} {
		b.Run(fmt.Sprintf("omega=%.1f", omega), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bounds.RA(model, bounds.Options{
					Solver: linalg.FixedPointOptions{Omega: omega},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBoundCapacity caps the hyperplane store (Section 4.3's
// finite-storage strategy) and reports the resulting bound tightness.
func BenchmarkAblationBoundCapacity(b *testing.B) {
	for _, capN := range []int{0, 8, 32} {
		name := fmt.Sprintf("cap=%d", capN)
		if capN == 0 {
			name = "cap=unlimited"
		}
		b.Run(name, func(b *testing.B) {
			compiled, err := emn.Build(emn.Config{})
			if err != nil {
				b.Fatal(err)
			}
			prep, err := core.Prepare(compiled.Recovery, core.PrepareOptions{
				OperatorResponseTime: emn.OperatorResponseTime,
				BoundCapacity:        capN,
			})
			if err != nil {
				b.Fatal(err)
			}
			boot, err := prep.NewBootstrapper(controller.VariantAverage, 1, rng.New(1))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var last controller.IterationStats
			for i := 0; i < b.N; i++ {
				st, err := boot.Iterate()
				if err != nil {
					b.Fatal(err)
				}
				last = st
			}
			b.ReportMetric(experiments.UpperBoundOnCost(last.BoundAtUniform), "upperBoundCost")
			b.ReportMetric(float64(last.Vectors), "vectors")
		})
	}
}
