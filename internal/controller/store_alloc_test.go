//go:build !race

package controller_test

import (
	"testing"

	"bpomdp/internal/controller"
	"bpomdp/internal/core"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
)

// TestDecisionTableWarmHitAllocs: a DecideBatch of 16 reachable EMN beliefs
// that the shared store's online region already holds allocates nothing. (The race
// detector's instrumentation allocates on its own, hence the build tag.)
func TestDecisionTableWarmHitAllocs(t *testing.T) {
	prep, runner, faults := emnTablePrep(t, 10)
	pis := campaignBeliefs(t, prep, runner, faults, 16)
	ctrl, err := prep.NewController(core.ControllerConfig{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]controller.Decision, len(pis))
	if err := ctrl.DecideBatch(pis, out); err != nil {
		t.Fatal(err)
	}
	tbl := prep.DecisionStore(1)
	misses := tbl.OnlineMisses()
	allocs := testing.AllocsPerRun(100, func() {
		if err := ctrl.DecideBatch(pis, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm-store DecideBatch: %v allocs/op, want 0", allocs)
	}
	if tbl.OnlineMisses() != misses {
		t.Errorf("warm batches missed the online region %d times", tbl.OnlineMisses()-misses)
	}
}

// TestBareTreeWarmAllocs: a warm controller with no decision store, the
// bare Max-Avg tree, allocates nothing on a DecideBatch of 16 reachable EMN
// beliefs, on one of 64 dense random beliefs, or on an episode's Reset and
// Decide.
func TestBareTreeWarmAllocs(t *testing.T) {
	prep, runner, faults := emnTablePrep(t, 10)
	ctrl := tableFree(t, prep, core.ControllerConfig{Depth: 1})
	stream := rng.New(7)
	dense := make([]pomdp.Belief, 64)
	for i := range dense {
		pi := make(pomdp.Belief, prep.Model.NumStates())
		sum := 0.0
		for s := range pi {
			pi[s] = stream.Float64()
			sum += pi[s]
		}
		for s := range pi {
			pi[s] /= sum
		}
		dense[i] = pi
	}
	for _, c := range []struct {
		name string
		pis  []pomdp.Belief
	}{
		{"16 reachable beliefs", campaignBeliefs(t, prep, runner, faults, 16)},
		{"64 dense beliefs", dense},
	} {
		out := make([]controller.Decision, len(c.pis))
		batch := func() {
			if err := ctrl.DecideBatch(c.pis, out); err != nil {
				t.Fatal(err)
			}
		}
		batch()
		if allocs := testing.AllocsPerRun(20, batch); allocs != 0 {
			t.Errorf("bare-tree DecideBatch over %s: %v allocs/op, want 0", c.name, allocs)
		}
	}
	initial, err := prep.InitialBelief()
	if err != nil {
		t.Fatal(err)
	}
	decide := func() {
		if err := ctrl.Reset(initial); err != nil {
			t.Fatal(err)
		}
		if _, err := ctrl.Decide(); err != nil {
			t.Fatal(err)
		}
	}
	decide()
	if allocs := testing.AllocsPerRun(20, decide); allocs != 0 {
		t.Errorf("bare-tree Reset and Decide: %v allocs/op, want 0", allocs)
	}
}

// TestFSCHitAllocs: a warm DecideBatch of 16 EMN beliefs that the compiled
// FSC answers in full, and a per-episode Decide at an FSC node, allocate
// nothing.
func TestFSCHitAllocs(t *testing.T) {
	prep, _, _ := emnTablePrep(t, 10)
	fsc, err := prep.CompileFSC(core.FSCConfig{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := prep.NewFSCDecider(fsc, core.ControllerConfig{Depth: 1}, fsc.MaxGap()+1)
	if err != nil {
		t.Fatal(err)
	}
	pis := make([]pomdp.Belief, 16)
	for i := range pis {
		pis[i] = fsc.Node(i % fsc.NumNodes()).Belief
	}
	out := make([]controller.Decision, len(pis))
	if err := dec.DecideBatch(pis, out); err != nil {
		t.Fatal(err)
	}
	fallbacks := fsc.Fallbacks()
	if allocs := testing.AllocsPerRun(100, func() {
		if err := dec.DecideBatch(pis, out); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("all-hit FSC DecideBatch: %v allocs/op, want 0", allocs)
	}
	if err := dec.Reset(pis[0]); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := dec.Decide(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Decide at an FSC node: %v allocs/op, want 0", allocs)
	}
	if fsc.Fallbacks() != fallbacks {
		t.Errorf("FSC-node beliefs fell back %d times", fsc.Fallbacks()-fallbacks)
	}
}

// TestFSCDeciderFirstObserveAllocs: a new FSC decider's first observation,
// the first Bayes update its fresh Scratch makes, allocates nothing: the
// observation matrices' column views are built once per matrix and shared,
// not once per Scratch. It allocated 6 times when each Scratch built its
// own columns.
func TestFSCDeciderFirstObserveAllocs(t *testing.T) {
	prep, _, _ := emnTablePrep(t, 10)
	fsc, err := prep.CompileFSC(core.FSCConfig{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	initial, err := prep.InitialBelief()
	if err != nil {
		t.Fatal(err)
	}
	const runs = 50
	deciders := make([]*controller.Bounded, runs+1) // AllocsPerRun warms up with one
	for i := range deciders {
		if deciders[i], err = prep.NewFSCDecider(fsc, core.ControllerConfig{Depth: 1}, 1e-6); err != nil {
			t.Fatal(err)
		}
		if err := deciders[i].Reset(initial); err != nil {
			t.Fatal(err)
		}
	}
	d, err := deciders[0].Decide()
	if err != nil {
		t.Fatal(err)
	}
	succ := prep.Model.Successors(pomdp.NewScratch(prep.Model), initial, d.Action)
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := deciders[next].Observe(d.Action, succ[0].Obs); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs != 0 {
		t.Errorf("a new FSC decider's first Observe: %v allocs/op, want 0", allocs)
	}
}
