//go:build !race

package pomdp_test

import (
	"testing"

	"bpomdp/internal/pomdp"
)

// TestValidateDoesNotAllocate: every engine build re-validates its model,
// so validating the prepared EMN model — its MDP's transition rows and its
// observation rows — allocates nothing.
func TestValidateDoesNotAllocate(t *testing.T) {
	m := preparedEMN(t).Model
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

// TestUpdateIntoDoesNotAllocate: the belief filter's steady-state Bayes
// update — pomdp.UpdateInto ping-ponging two reused buffers with one
// scratch, as an episode's belief tracker does — allocates nothing.
func TestUpdateIntoDoesNotAllocate(t *testing.T) {
	prep := preparedEMN(t)
	m := prep.Model
	initial, err := prep.InitialBelief()
	if err != nil {
		t.Fatal(err)
	}
	sc := pomdp.NewScratch(m)
	a := prep.Source.MonitorAction
	succs := m.Successors(sc, initial, a)
	if len(succs) == 0 {
		t.Fatal("no successors of the initial belief")
	}
	o := succs[0].Obs
	cur, next := make(pomdp.Belief, len(initial)), make(pomdp.Belief, len(initial))
	if n := testing.AllocsPerRun(100, func() {
		copy(cur, initial)
		for step := 0; step < 4; step++ {
			out, err := m.UpdateInto(sc, next, cur, a, o)
			if err != nil {
				t.Fatal(err)
			}
			cur, next = out, cur
		}
	}); n != 0 {
		t.Errorf("four reused-buffer belief updates allocate %v times, want 0", n)
	}
}

// TestBackupIntoDoesNotAllocate: a warm BackupInto — its successor buffer
// and Q-slice reused from an earlier call, the leaf a bound set evaluated
// on the stack — allocates nothing on EMN, at the initial belief and at
// each of its successors.
func TestBackupIntoDoesNotAllocate(t *testing.T) {
	prep := preparedEMN(t)
	m := prep.Model
	initial, err := prep.InitialBelief()
	if err != nil {
		t.Fatal(err)
	}
	sc := pomdp.NewScratch(m)
	beliefs := []pomdp.Belief{initial}
	for _, succ := range m.Successors(sc, initial, prep.Source.MonitorAction) {
		beliefs = append(beliefs, succ.Belief)
	}
	buf := pomdp.NewSuccessorBuf(m)
	var q []float64
	backup := func() {
		for _, pi := range beliefs {
			res, err := pomdp.BackupInto(m, sc, buf, pi, 1, prep.Set, q)
			if err != nil {
				t.Fatal(err)
			}
			q = res.QValues
		}
	}
	backup()
	if n := testing.AllocsPerRun(100, backup); n != 0 {
		t.Errorf("%d warm backups allocate %v times, want 0", len(beliefs), n)
	}
}
