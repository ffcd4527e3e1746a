//go:build !race

package pomdp_test

import (
	"testing"

	"bpomdp/internal/core"
	"bpomdp/internal/emn"
)

// TestValidateDoesNotAllocate: every engine build re-validates its model,
// so validating the prepared EMN model — its MDP's transition rows and its
// observation rows — allocates nothing.
func TestValidateDoesNotAllocate(t *testing.T) {
	compiled, err := emn.Build(emn.Config{})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := core.Prepare(compiled.Recovery, core.PrepareOptions{OperatorResponseTime: emn.OperatorResponseTime})
	if err != nil {
		t.Fatal(err)
	}
	m := prep.Model
	if n := testing.AllocsPerRun(100, func() {
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("validating the EMN model allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = m.M.Validate() }); n != 0 {
		t.Errorf("validating the EMN MDP allocates %v times, want 0", n)
	}
}
