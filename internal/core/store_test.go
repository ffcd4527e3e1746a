package core

import (
	"path/filepath"
	"testing"

	"bpomdp/internal/controller"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
)

// tableBeliefs returns a few distinct beliefs over prep's model.
func tableBeliefs(t *testing.T, prep *Prepared) []pomdp.Belief {
	t.Helper()
	initial, err := prep.InitialBelief()
	if err != nil {
		t.Fatal(err)
	}
	pis := []pomdp.Belief{initial}
	stream := rng.New(2304)
	for i := 0; i < 5; i++ {
		pi := initial.Clone()
		sum := 0.0
		for s := range pi {
			if pi[s] > 0 {
				pi[s] += stream.Float64()
			}
			sum += pi[s]
		}
		for s := range pi {
			pi[s] /= sum
		}
		pis = append(pis, pi)
	}
	return pis
}

// TestDecisionTableSharedPerSetAndDepth: controllers NewController builds
// over one set share one decision store per depth (depth 0 meaning 1), a
// deeper tree gets its own, and a set loaded from a bounds file starts a
// fresh one.
func TestDecisionTableSharedPerSetAndDepth(t *testing.T) {
	prep, err := Prepare(twoServerModel(t, 0.9, 0.05), PrepareOptions{OperatorResponseTime: 10})
	if err != nil {
		t.Fatal(err)
	}
	pis := tableBeliefs(t, prep)
	out := make([]controller.Decision, len(pis))
	for _, depth := range []int{0, 1, 2} {
		ctrl, err := prep.NewController(ControllerConfig{Depth: depth})
		if err != nil {
			t.Fatal(err)
		}
		if err := ctrl.DecideBatch(pis, out); err != nil {
			t.Fatal(err)
		}
	}
	one, two := prep.DecisionStore(1), prep.DecisionStore(2)
	if one == two || prep.DecisionStore(0) != one {
		t.Fatal("depth 0 and 1 must share a store and depth 2 must not")
	}
	if one.NumNodes() != 0 || one.Depth() != 1 || two.Depth() != 2 {
		t.Errorf("stores hold %d nodes at depth %d and depth %d; want none, 1 and 2", one.NumNodes(), one.Depth(), two.Depth())
	}
	n := uint64(len(pis))
	if one.OnlineMisses() != n || one.OnlineHits() != n || two.OnlineMisses() != n || two.OnlineHits() != 0 {
		t.Errorf("depth 1: %d hits, %d misses; depth 2: %d hits, %d misses; want %d/%d and 0/%d",
			one.OnlineHits(), one.OnlineMisses(), two.OnlineHits(), two.OnlineMisses(), n, n, n)
	}
	if one.Hits() != 0 || one.Fallbacks() != 0 {
		t.Errorf("a store without compiled nodes counted %d hits, %d fallbacks", one.Hits(), one.Fallbacks())
	}

	path := filepath.Join(t.TempDir(), "bounds.json")
	if err := prep.SaveBounds(path); err != nil {
		t.Fatal(err)
	}
	if loaded, err := prep.LoadBounds(path); err != nil || !loaded {
		t.Fatalf("loaded=%v err=%v", loaded, err)
	}
	if prep.DecisionStore(1) == one {
		t.Error("a loaded set reuses the previous set's store")
	}
}

// TestCompileFSCLeavesDecisionStoreUntouched: the compiler decides through
// a tree of its own, not through a NewController controller, so compiling
// leaves nothing in the shared decision store for serving never to read.
func TestCompileFSCLeavesDecisionStoreUntouched(t *testing.T) {
	prep, err := Prepare(twoServerModel(t, 0.9, 0.05), PrepareOptions{OperatorResponseTime: 10})
	if err != nil {
		t.Fatal(err)
	}
	fsc, err := prep.CompileFSC(FSCConfig{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fsc.NumNodes() == 0 {
		t.Fatal("compiled no nodes")
	}
	if store := prep.DecisionStore(1); store.OnlineHits() != 0 || store.OnlineMisses() != 0 {
		t.Errorf("compiling %d nodes left %d online hits and %d misses in the decision store; want none",
			fsc.NumNodes(), store.OnlineHits(), store.OnlineMisses())
	}
}

// TestDecisionTableCapacityFromBoundsFile: a set whose bounds file carries
// a capacity never consults the online region, so least-used eviction sees
// every leaf use: its use counters advance exactly as a store-free twin's.
func TestDecisionTableCapacityFromBoundsFile(t *testing.T) {
	src, err := Prepare(twoServerModel(t, 0.9, 0.05), PrepareOptions{OperatorResponseTime: 10, BoundCapacity: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Bootstrap(5, controller.VariantAverage, 1, rng.New(5)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bounds.json")
	if err := src.SaveBounds(path); err != nil {
		t.Fatal(err)
	}
	load := func() *Prepared {
		p, err := Prepare(twoServerModel(t, 0.9, 0.05), PrepareOptions{OperatorResponseTime: 10})
		if err != nil {
			t.Fatal(err)
		}
		if loaded, err := p.LoadBounds(path); err != nil || !loaded {
			t.Fatalf("loaded=%v err=%v", loaded, err)
		}
		if p.Set.Capacity() != 6 {
			t.Fatalf("loaded capacity %d, want 6", p.Set.Capacity())
		}
		return p
	}
	prep, twin := load(), load()
	ctrl, err := prep.NewController(ControllerConfig{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := controller.NewBounded(twin.Model, twin.Set, twin.BoundedConfig(ControllerConfig{Depth: 1}))
	if err != nil {
		t.Fatal(err)
	}
	pis := tableBeliefs(t, prep)
	got := make([]controller.Decision, len(pis))
	want := make([]controller.Decision, len(pis))
	for pass := 0; pass < 2; pass++ {
		if err := ctrl.DecideBatch(pis, got); err != nil {
			t.Fatal(err)
		}
		if err := ref.DecideBatch(pis, want); err != nil {
			t.Fatal(err)
		}
		for j := range pis {
			if got[j] != want[j] {
				t.Fatalf("pass %d belief %d: %+v, store-free %+v", pass, j, got[j], want[j])
			}
		}
	}
	if tbl := prep.DecisionStore(1); tbl.OnlineHits() != 0 || tbl.OnlineMisses() != 0 {
		t.Errorf("capped set consulted the online region: %d hits, %d misses", tbl.OnlineHits(), tbl.OnlineMisses())
	}
	for i := 0; i < prep.Set.Size(); i++ {
		if prep.Set.Uses(i) != twin.Set.Uses(i) {
			t.Errorf("plane %d uses %d, store-free twin %d", i, prep.Set.Uses(i), twin.Set.Uses(i))
		}
	}
}
