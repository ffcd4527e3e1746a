//go:build !race

package controller_test

import (
	"testing"

	"bpomdp/internal/controller"
	"bpomdp/internal/core"
	"bpomdp/internal/pomdp"
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
