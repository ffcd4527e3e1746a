//go:build !race

package bounds_test

import (
	"testing"

	"bpomdp/internal/controller"
	"bpomdp/internal/core"
	"bpomdp/internal/emn"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
)

// TestUpperBoundValueDoesNotAllocate: evaluating EMN's refined sawtooth
// upper bound allocates nothing — the π(s) ≤ 0 bitset lives on the stack —
// at the initial belief and at every successor a monitor call reaches.
func TestUpperBoundValueDoesNotAllocate(t *testing.T) {
	compiled, err := emn.Build(emn.Config{})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := core.Prepare(compiled.Recovery, core.PrepareOptions{OperatorResponseTime: emn.OperatorResponseTime})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Bootstrap(10, controller.VariantAverage, 1, rng.New(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := prep.RefineBounds(core.RefineConfig{}); err != nil {
		t.Fatal(err)
	}
	if prep.Upper.NumPoints() == 0 {
		t.Fatal("refinement stored no sawtooth points")
	}
	initial, err := prep.InitialBelief()
	if err != nil {
		t.Fatal(err)
	}
	beliefs := []pomdp.Belief{initial}
	for _, succ := range prep.Model.Successors(pomdp.NewScratch(prep.Model), initial, prep.Source.MonitorAction) {
		beliefs = append(beliefs, succ.Belief)
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, pi := range beliefs {
			prep.Upper.Value(pi)
		}
	}); n != 0 {
		t.Errorf("%d warm sawtooth evaluations allocate %v times, want 0", len(beliefs), n)
	}
}
