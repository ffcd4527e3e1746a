package controller_test

import (
	"math"
	"sync"
	"testing"

	"bpomdp/internal/controller"
	"bpomdp/internal/core"
	"bpomdp/internal/emn"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
	"bpomdp/internal/sim"
)

// emnTablePrep prepares the EMN model, bootstrapped by the given number of
// episodes (none leaves the RA-Bound alone), and its simulator.
func emnTablePrep(t testing.TB, bootstrap int) (*core.Prepared, *sim.Runner, []int) {
	t.Helper()
	compiled, err := emn.Build(emn.Config{})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := core.Prepare(compiled.Recovery, core.PrepareOptions{OperatorResponseTime: emn.OperatorResponseTime})
	if err != nil {
		t.Fatal(err)
	}
	if bootstrap > 0 {
		if _, err := prep.Bootstrap(bootstrap, controller.VariantAverage, 1, rng.New(3)); err != nil {
			t.Fatal(err)
		}
	}
	runner, err := sim.NewRunner(compiled.Recovery, 20000)
	if err != nil {
		t.Fatal(err)
	}
	return prep, runner, compiled.ZombieStates
}

// beliefRecorder decides with the embedded controller and keeps a copy of
// the first limit beliefs it is asked to decide.
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

// tableFree returns a controller like prep.NewController(cfg)'s but
// without the shared decision table: the bare tree.
func tableFree(t testing.TB, prep *core.Prepared, cfg core.ControllerConfig) *controller.Bounded {
	t.Helper()
	ctrl, err := controller.NewBounded(prep.Model, prep.Set, prep.BoundedConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

// campaignBeliefs returns the first m beliefs a seeded batched campaign
// (batches of 16) asks a table-free depth-1 controller to decide.
func campaignBeliefs(t testing.TB, prep *core.Prepared, runner *sim.Runner, faults []int, m int) []pomdp.Belief {
	t.Helper()
	ctrl := tableFree(t, prep, core.ControllerConfig{Depth: 1})
	initial, err := prep.InitialBelief()
	if err != nil {
		t.Fatal(err)
	}
	rec := &beliefRecorder{Bounded: ctrl, limit: m}
	if _, err := runner.RunCampaignOpts(ctrl, initial, faults, 4*m, rng.New(11), sim.CampaignOptions{
		Workers: 1, BatchSize: 16, BatchDecider: rec,
	}); err != nil {
		t.Fatal(err)
	}
	if len(rec.seen) < m {
		t.Fatalf("campaign decided %d beliefs, want %d", len(rec.seen), m)
	}
	return rec.seen
}

// decideAll decides pis through ctrl in batches of 16.
func decideAll(t testing.TB, ctrl controller.BatchDecider, pis []pomdp.Belief) []controller.Decision {
	t.Helper()
	out := make([]controller.Decision, len(pis))
	for lo := 0; lo < len(pis); lo += 16 {
		hi := min(lo+16, len(pis))
		if err := ctrl.DecideBatch(pis[lo:hi], out[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// checkSame fails unless got and want agree bit for bit.
func checkSame(t *testing.T, label string, got, want []controller.Decision) {
	t.Helper()
	for j := range want {
		g, w := got[j], want[j]
		if g.Action != w.Action || g.Terminate != w.Terminate || math.Float64bits(g.Value) != math.Float64bits(w.Value) {
			t.Fatalf("%s: belief %d decided %+v, the table-free tree %+v", label, j, g, w)
		}
	}
}

// TestDecisionTableParityEMN: on beliefs of a batched EMN campaign, over
// the bootstrapped and then the HSVI-refined bound set, the controllers
// prep.NewController builds — cold and then warm, and an FSC-fronted one on
// the beliefs its FSC misses — decide exactly as a table-free controller does.
func TestDecisionTableParityEMN(t *testing.T) {
	prep, runner, faults := emnTablePrep(t, 10)
	pis := campaignBeliefs(t, prep, runner, faults, 256)
	cfg := core.ControllerConfig{Depth: 1}
	for _, stage := range []string{"bootstrapped", "refined"} {
		if stage == "refined" {
			if _, err := prep.RefineBounds(core.RefineConfig{}); err != nil {
				t.Fatal(err)
			}
		}
		want := decideAll(t, tableFree(t, prep, cfg), pis)
		tbl := prep.DecisionTable(1)
		hits, misses := tbl.Hits(), tbl.Misses()
		for _, pass := range []string{"cold", "warm"} {
			ctrl, err := prep.NewController(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkSame(t, stage+" "+pass, decideAll(t, ctrl, pis), want)
		}
		if tbl.Hits()-hits <= uint64(len(pis)) || tbl.Misses() == misses {
			t.Errorf("%s: %d hits, %d misses over two passes of %d beliefs; want a warm second pass",
				stage, tbl.Hits()-hits, tbl.Misses()-misses, len(pis))
		}
		// An FSC compiled from nothing but the initial belief misses
		// almost everything, and the misses go to the shared table.
		fsc, err := prep.CompileFSC(core.FSCConfig{Depth: 1, MaxNodes: 1})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := prep.NewFSCDecider(fsc, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		before := tbl.Hits()
		checkSame(t, stage+" fsc fallback", decideAll(t, dec, pis), want)
		if tbl.Hits() == before {
			t.Errorf("%s: the FSC fallback never hit the shared table", stage)
		}
	}
}

// TestDecisionTableConcurrentImprove: eight goroutines decide overlapping
// campaign beliefs through controllers of one Prepared, sharing its table,
// while an online-improving controller mutates the bound set. Once the
// last mutation is done, every decision equals the table-free tree's over
// the final set. Run it under -race.
func TestDecisionTableConcurrentImprove(t *testing.T) {
	prep, runner, faults := emnTablePrep(t, 0)
	pis := campaignBeliefs(t, prep, runner, faults, 96)
	cfg := core.ControllerConfig{Depth: 1}
	gen := prep.Set.Generation()

	improved := make(chan struct{})
	const workers = 8
	finals := make([][]controller.Decision, workers)
	errs := make(chan error, workers+1)
	var wg, started sync.WaitGroup
	started.Add(workers)
	for g := 0; g < workers; g++ {
		ctrl, err := prep.NewController(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mine := append(append([]pomdp.Belief(nil), pis[8*g:]...), pis[:8*g]...)
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]controller.Decision, len(mine))
			decide := func() error {
				for lo := 0; lo < len(mine); lo += 16 {
					hi := min(lo+16, len(mine))
					if err := ctrl.DecideBatch(mine[lo:hi], out[lo:hi]); err != nil {
						return err
					}
				}
				return nil
			}
			err := decide() // fills the table before any mutation
			started.Done()
			for done := false; !done && err == nil; {
				select {
				case <-improved:
					done = true
				default:
				}
				err = decide()
			}
			if err != nil {
				errs <- err
				return
			}
			// This pass started after the last mutation.
			finals[g] = append([]controller.Decision(nil), out...)
		}()
	}
	improver, err := prep.NewController(core.ControllerConfig{Depth: 1, ImproveOnline: true})
	if err != nil {
		t.Fatal(err)
	}
	one := make([]controller.Decision, 1)
	started.Wait()
	for _, pi := range pis {
		if err := improver.DecideBatch([]pomdp.Belief{pi}, one); err != nil {
			errs <- err
			break
		}
	}
	close(improved)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if prep.Set.Generation() == gen {
		t.Fatal("online improvement never changed the set; the test shows nothing")
	}
	ref := tableFree(t, prep, cfg)
	for g, got := range finals {
		mine := append(append([]pomdp.Belief(nil), pis[8*g:]...), pis[:8*g]...)
		checkSame(t, "worker after the last mutation", got, decideAll(t, ref, mine))
	}
}
