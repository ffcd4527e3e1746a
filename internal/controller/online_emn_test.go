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
// without a decision store: the bare tree.
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
// the beliefs its compiled nodes miss — decide exactly as a store-free
// controller does.
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
		tbl := prep.DecisionStore(1)
		hits, misses := tbl.OnlineHits(), tbl.OnlineMisses()
		for _, pass := range []string{"cold", "warm"} {
			ctrl, err := prep.NewController(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkSame(t, stage+" "+pass, decideAll(t, ctrl, pis), want)
		}
		if tbl.OnlineHits()-hits <= uint64(len(pis)) || tbl.OnlineMisses() == misses {
			t.Errorf("%s: %d hits, %d misses over two passes of %d beliefs; want a warm second pass",
				stage, tbl.OnlineHits()-hits, tbl.OnlineMisses()-misses, len(pis))
		}
		// An FSC compiled from nothing but the initial belief misses
		// almost everything, and its online region answers the repeats.
		fsc, err := prep.CompileFSC(core.FSCConfig{Depth: 1, MaxNodes: 1})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := prep.NewFSCDecider(fsc, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkSame(t, stage+" fsc fallback", decideAll(t, dec, pis), want)
		if fsc.OnlineHits() == 0 || fsc.Fallbacks() == 0 {
			t.Errorf("%s: %d fallbacks, %d online hits; want the FSC's misses answered from its online region",
				stage, fsc.Fallbacks(), fsc.OnlineHits())
		}
	}
}

// TestDecisionTableConcurrentImprove: eight goroutines decide overlapping
// campaign beliefs through controllers of one Prepared, sharing its store,
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
			err := decide() // fills the online region before any mutation
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

// TestDecisionTableFSCOnlineRegion: an episode controller and a batch
// decider that share one compiled FSC, deciding concurrently, answer the
// beliefs its compiled nodes miss from the FSC's online region, exactly as
// a store-free tree does. Online hits report TierTree, and the FSC's Hits
// and Fallbacks count compiled-node answers only. Run it under -race.
func TestDecisionTableFSCOnlineRegion(t *testing.T) {
	prep, runner, faults := emnTablePrep(t, 10)
	pis := campaignBeliefs(t, prep, runner, faults, 256)
	cfg := core.ControllerConfig{Depth: 1}
	want := decideAll(t, tableFree(t, prep, cfg), pis)
	fsc, err := prep.CompileFSC(core.FSCConfig{Depth: 1, MaxNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	onNode := 0
	for _, pi := range pis {
		for i := 0; i < fsc.NumNodes(); i++ {
			if pomdp.SameBits(fsc.Node(i).Belief, pi) {
				onNode++
				break
			}
		}
	}
	if onNode == 0 || onNode == len(pis) {
		t.Fatalf("%d of %d beliefs sit on compiled nodes; want some of them", onNode, len(pis))
	}
	prepared := prep.DecisionStore(1)
	threshold := fsc.MaxGap() + 1 // every node serves
	episodic, err := prep.NewFSCDecider(fsc, cfg, threshold)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := prep.NewFSCDecider(fsc, cfg, threshold)
	if err != nil {
		t.Fatal(err)
	}

	got := make([]controller.Decision, len(pis))
	tiers := map[string]int{}
	batchGot := make([]controller.Decision, len(pis))
	batchErr := make(chan error, 1)
	go func() {
		var err error
		for lo := 0; lo < len(pis) && err == nil; lo += 16 {
			hi := min(lo+16, len(pis))
			err = batch.DecideBatch(pis[lo:hi], batchGot[lo:hi])
		}
		batchErr <- err
	}()
	for j, pi := range pis {
		if err := episodic.Reset(pi); err != nil {
			t.Fatal(err)
		}
		d, err := episodic.Decide()
		if err != nil {
			t.Fatal(err)
		}
		got[j] = d
		tiers[episodic.LastTier()]++
	}
	if err := <-batchErr; err != nil {
		t.Fatal(err)
	}
	checkSame(t, "episode controller", got, want)
	checkSame(t, "batch decider", batchGot, want)

	if tiers[controller.TierFSC] != onNode || tiers[controller.TierTree] != len(pis)-onNode {
		t.Errorf("episode tiers %v; want %d fsc and %d tree", tiers, onNode, len(pis)-onNode)
	}
	misses := uint64(len(pis) - onNode)
	if fsc.Hits() != 2*uint64(onNode) || fsc.Fallbacks() != 2*misses {
		t.Errorf("FSC counted %d hits, %d fallbacks; want %d and %d", fsc.Hits(), fsc.Fallbacks(), 2*onNode, 2*misses)
	}
	if fsc.OnlineHits() == 0 || fsc.OnlineHits()+fsc.OnlineMisses() != 2*misses {
		t.Errorf("online region: %d hits, %d misses; want hits, and %d beliefs in all",
			fsc.OnlineHits(), fsc.OnlineMisses(), 2*misses)
	}
	if n := prepared.OnlineHits() + prepared.OnlineMisses(); n != 0 {
		t.Errorf("%d of the FSC's misses reached the prepared store", n)
	}
}
