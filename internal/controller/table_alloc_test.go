//go:build !race

package controller_test

import (
	"testing"

	"bpomdp/internal/controller"
	"bpomdp/internal/core"
)

// TestDecisionTableWarmHitAllocs: a DecideBatch of 16 reachable EMN beliefs
// that the shared table already holds allocates nothing. (The race
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
	tbl := prep.DecisionTable(1)
	misses := tbl.Misses()
	allocs := testing.AllocsPerRun(100, func() {
		if err := ctrl.DecideBatch(pis, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm-table DecideBatch: %v allocs/op, want 0", allocs)
	}
	if tbl.Misses() != misses {
		t.Errorf("warm batches missed the table %d times", tbl.Misses()-misses)
	}
}
