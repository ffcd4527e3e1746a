package controller

import (
	"math"
	"reflect"
	"testing"

	"bpomdp/internal/bounds"
	"bpomdp/internal/rng"
)

// TestDecisionStatsSequential checks the per-decision explanation produced
// by a CollectStats controller: the stats echo the decision, the bound gap
// is the Property 1(b) slack Value − V_B⁻(π) and never negative, and the
// engine work counters are live.
func TestDecisionStatsSequential(t *testing.T) {
	f := newFixture(t)
	ctrl, err := NewBounded(f.term, f.set, BoundedConfig{
		Depth: 1, TerminateAction: f.idx.Action, NullStates: []int{0}, CollectStats: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ctrl.StatsEnabled() {
		t.Fatal("CollectStats controller reports StatsEnabled() == false")
	}
	for _, pi := range batchBeliefs(rng.New(23), 10, f.term.NumStates()) {
		d, err := decideFrom(ctrl, pi)
		if err != nil {
			t.Fatal(err)
		}
		st := ctrl.DecisionStats()
		if st.Action != d.Action || st.Terminate != d.Terminate || st.Value != d.Value {
			t.Errorf("stats echo decision badly: stats %+v, decision %+v", st, d)
		}
		if want := f.set.Peek(pi); st.LeafBound != want {
			t.Errorf("LeafBound = %v, want Peek = %v", st.LeafBound, want)
		}
		if st.BoundGap != st.Value-st.LeafBound {
			t.Errorf("BoundGap = %v, want Value-LeafBound = %v", st.BoundGap, st.Value-st.LeafBound)
		}
		if st.BoundGap < -1e-9 {
			t.Errorf("negative bound gap %v violates Property 1(b)", st.BoundGap)
		}
		if want := pi.Entropy(); st.BeliefEntropy != want {
			t.Errorf("BeliefEntropy = %v, want %v", st.BeliefEntropy, want)
		}
		if st.TreeNodes == 0 || st.LeafEvals == 0 {
			t.Errorf("work counters dead: %+v", st)
		}
		if len(st.QValues) != f.term.NumActions() {
			t.Errorf("QValues length %d, want %d", len(st.QValues), f.term.NumActions())
		}
		if st.SetSize != f.set.Size() {
			t.Errorf("SetSize = %d, want %d", st.SetSize, f.set.Size())
		}
	}
}

// TestStatsDisabledByDefault: without CollectStats the controller must say
// so, so callers skip the stats path entirely.
func TestStatsDisabledByDefault(t *testing.T) {
	f := newFixture(t)
	ctrl, err := NewBounded(f.term, f.set, BoundedConfig{Depth: 1, TerminateAction: f.idx.Action})
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.StatsEnabled() {
		t.Error("StatsEnabled() true without CollectStats")
	}
}

// TestBatchDecisionStatsMatchSequential: DecideBatch must attribute stats
// per belief such that the explanation fields agree with sequential Decide
// exactly and the work-counter attribution sums to the batch's true engine
// totals.
func TestBatchDecisionStatsMatchSequential(t *testing.T) {
	f := newFixture(t)
	mk := func() *Bounded {
		ctrl, err := NewBounded(f.term, f.set, BoundedConfig{
			Depth: 1, TerminateAction: f.idx.Action, NullStates: []int{0}, CollectStats: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ctrl
	}
	seqCtrl, batCtrl := mk(), mk()
	pis := batchBeliefs(rng.New(29), 9, f.term.NumStates())

	want := make([]DecisionStats, len(pis))
	for j, pi := range pis {
		if _, err := decideFrom(seqCtrl, pi); err != nil {
			t.Fatal(err)
		}
		st := seqCtrl.DecisionStats()
		st.QValues = append([]float64(nil), st.QValues...)
		want[j] = st
	}

	before := batCtrl.engine.Counters()
	out := make([]Decision, len(pis))
	if err := batCtrl.DecideBatch(pis, out); err != nil {
		t.Fatal(err)
	}
	after := batCtrl.engine.Counters()
	got := batCtrl.BatchDecisionStats()
	if len(got) != len(pis) {
		t.Fatalf("batch stats length %d, want %d", len(got), len(pis))
	}

	var nodes, leaves, passes uint64
	for j := range got {
		nodes += got[j].TreeNodes
		leaves += got[j].LeafEvals
		passes += got[j].SlabPasses
		g, w := got[j], want[j]
		// The work counters are attributed differently (shared expansion);
		// everything else must agree exactly.
		g.TreeNodes, g.LeafEvals, g.SlabPasses = 0, 0, 0
		w.TreeNodes, w.LeafEvals, w.SlabPasses = 0, 0, 0
		if !reflect.DeepEqual(g, w) {
			t.Errorf("belief %d stats diverge:\nbatch: %+v\nseq:   %+v", j, g, w)
		}
	}
	if nodes != after.Nodes-before.Nodes {
		t.Errorf("TreeNodes attribution sums to %d, engine did %d", nodes, after.Nodes-before.Nodes)
	}
	if leaves != after.LeafEvals-before.LeafEvals {
		t.Errorf("LeafEvals attribution sums to %d, engine did %d", leaves, after.LeafEvals-before.LeafEvals)
	}
	if passes != after.SlabPasses-before.SlabPasses {
		t.Errorf("SlabPasses attribution sums to %d, engine did %d", passes, after.SlabPasses-before.SlabPasses)
	}
}

// TestBatchStatsSequentialFallback: the ImproveOnline fallback path must
// still fill per-belief batch stats, with QValues stable across the whole
// batch (not aliased to a buffer the next decision overwrites).
func TestBatchStatsSequentialFallback(t *testing.T) {
	f := newFixture(t)
	set, err := bounds.RASet(f.term, bounds.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewBounded(f.term, set, BoundedConfig{
		Depth: 1, TerminateAction: f.idx.Action, NullStates: []int{0},
		ImproveOnline: true, CollectStats: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	pis := batchBeliefs(rng.New(31), 7, f.term.NumStates())
	out := make([]Decision, len(pis))
	if err := ctrl.DecideBatch(pis, out); err != nil {
		t.Fatal(err)
	}
	got := ctrl.BatchDecisionStats()
	for j := range pis {
		if got[j].Action != out[j].Action || got[j].Value != out[j].Value {
			t.Errorf("belief %d: stats %+v do not echo decision %+v", j, got[j], out[j])
		}
		if len(got[j].QValues) != f.term.NumActions() {
			t.Errorf("belief %d: QValues length %d", j, len(got[j].QValues))
		}
		if qa := got[j].QValues[out[j].Action]; math.Abs(qa-got[j].Value) > 1e-12 {
			t.Errorf("belief %d: QValues[action] = %v but Value = %v (stale alias?)", j, qa, got[j].Value)
		}
	}
}

// TestCollectStatsLeavesDecisionsUnchanged is the "observation does not
// perturb the experiment" guarantee: twin online-improving controllers over
// capacity-limited twin sets, one instrumented and one not, must make
// identical decisions and end with plane-identical bound sets — i.e. the
// stats path (Set.Peek, entropy, counters) must not touch usage counters or
// eviction order.
func TestCollectStatsLeavesDecisionsUnchanged(t *testing.T) {
	f := newFixture(t)
	mk := func(collect bool) *Bounded {
		set, err := bounds.RASet(f.term, bounds.Options{})
		if err != nil {
			t.Fatal(err)
		}
		set.SetCapacity(4)
		ctrl, err := NewBounded(f.term, set, BoundedConfig{
			Depth: 1, TerminateAction: f.idx.Action, NullStates: []int{0},
			ImproveOnline: true, CollectStats: collect,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ctrl
	}
	plain, instrumented := mk(false), mk(true)
	for _, pi := range batchBeliefs(rng.New(37), 40, f.term.NumStates()) {
		dp, err := decideFrom(plain, pi)
		if err != nil {
			t.Fatal(err)
		}
		di, err := decideFrom(instrumented, pi)
		if err != nil {
			t.Fatal(err)
		}
		if dp != di {
			t.Fatalf("instrumented decision %+v diverges from plain %+v", di, dp)
		}
	}
	a, b := plain.Set(), instrumented.Set()
	if a.Size() != b.Size() {
		t.Fatalf("set sizes diverged: plain %d, instrumented %d", a.Size(), b.Size())
	}
	for i := 0; i < a.Size(); i++ {
		if !reflect.DeepEqual(a.Plane(i), b.Plane(i)) {
			t.Errorf("plane %d diverged between plain and instrumented runs", i)
		}
	}
	if a.Evictions() != b.Evictions() {
		t.Errorf("eviction counts diverged: plain %d, instrumented %d", a.Evictions(), b.Evictions())
	}
}
