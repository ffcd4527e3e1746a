package bounds

import (
	"errors"
	"testing"

	"bpomdp/internal/linalg"
	"bpomdp/internal/pomdp"
)

func TestNewSetValidation(t *testing.T) {
	if _, err := NewSet(0); err == nil {
		t.Error("zero states accepted")
	}
	if _, err := NewSet(2, linalg.Vector{1}); err == nil {
		t.Error("short base plane accepted")
	}
	if _, err := NewSet(1, linalg.Vector{1, 2}); err == nil {
		t.Error("long base plane accepted")
	}
}

func TestSetValueMaxOfHyperplanes(t *testing.T) {
	s, err := NewSet(2, linalg.Vector{-2, 0}, linalg.Vector{0, -2})
	if err != nil {
		t.Fatal(err)
	}
	// At π = (1, 0): plane 1 gives 0, plane 0 gives -2.
	v, arg := s.ValueArg(pomdp.Belief{1, 0})
	if v != 0 || arg != 1 {
		t.Errorf("ValueArg = (%v, %d), want (0, 1)", v, arg)
	}
	// At π = (0.5, 0.5): both give -1.
	if got := s.Value(pomdp.Belief{0.5, 0.5}); got != -1 {
		t.Errorf("Value = %v, want -1", got)
	}
}

func TestSetEmptyValue(t *testing.T) {
	s, err := NewSet(2)
	if err != nil {
		t.Fatal(err)
	}
	v, arg := s.ValueArg(pomdp.Belief{1, 0})
	if arg != -1 || v > -1e300 {
		t.Errorf("empty set ValueArg = (%v, %d)", v, arg)
	}
}

func TestSetAddDiscardsDominated(t *testing.T) {
	s, err := NewSet(2, linalg.Vector{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	added, err := s.Add(linalg.Vector{-1, -1})
	if err != nil {
		t.Fatal(err)
	}
	if added || s.Size() != 1 {
		t.Errorf("dominated plane kept: added=%v size=%d", added, s.Size())
	}
}

func TestSetAddPrunesDominatedExisting(t *testing.T) {
	s, err := NewSet(2, linalg.Vector{-10, -10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(linalg.Vector{-5, -8}); err != nil {
		t.Fatal(err)
	}
	// New plane dominates (-5,-8) but not the base.
	if _, err := s.Add(linalg.Vector{-4, -7}); err != nil {
		t.Fatal(err)
	}
	if s.Size() != 2 {
		t.Errorf("size = %d, want 2 (base + dominating plane)", s.Size())
	}
	// Base plane never pruned even when dominated.
	if got := s.Plane(0); got[0] != -10 {
		t.Errorf("base plane = %v", got)
	}
}

func TestSetAddKeepsIncomparable(t *testing.T) {
	s, err := NewSet(2, linalg.Vector{-2, 0})
	if err != nil {
		t.Fatal(err)
	}
	added, err := s.Add(linalg.Vector{0, -2})
	if err != nil {
		t.Fatal(err)
	}
	if !added || s.Size() != 2 {
		t.Errorf("incomparable plane rejected: added=%v size=%d", added, s.Size())
	}
}

func TestSetAddValidation(t *testing.T) {
	s, err := NewSet(2, linalg.Vector{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(linalg.Vector{1}); err == nil {
		t.Error("wrong-length plane accepted")
	}
}

func TestSetCapacityEviction(t *testing.T) {
	s, err := NewSet(2, linalg.Vector{-10, -10})
	if err != nil {
		t.Fatal(err)
	}
	s.SetCapacity(3)
	// Add two incomparable planes.
	mustAdd := func(v linalg.Vector) {
		t.Helper()
		if _, err := s.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(linalg.Vector{-1, -9})
	mustAdd(linalg.Vector{-9, -1})
	if s.Size() != 3 {
		t.Fatalf("size = %d, want 3", s.Size())
	}
	// Touch plane 1 so plane 2 is the least used.
	s.Value(pomdp.Belief{1, 0}) // maximized by plane 1 (-1)
	mustAdd(linalg.Vector{-5, -5})
	if s.Size() != 3 {
		t.Errorf("size after eviction = %d, want 3", s.Size())
	}
	// Plane (-9,-1) (least used) must be gone: value at (0,1) now comes
	// from (-5,-5) giving -5, not -1.
	if got := s.Value(pomdp.Belief{0, 1}); got != -5 {
		t.Errorf("Value after eviction = %v, want -5", got)
	}
}

func TestCheckConsistencyEmptySet(t *testing.T) {
	mod := withNotification(t)
	s, err := NewSet(mod.NumStates())
	if err != nil {
		t.Fatal(err)
	}
	sc := pomdp.NewScratch(mod)
	_, err = CheckConsistency(mod, sc, s, pomdp.UniformBelief(mod.NumStates()), Options{})
	if !errors.Is(err, ErrEmptySet) {
		t.Errorf("err = %v, want ErrEmptySet", err)
	}
}

// TestSetPeekMatchesValueWithoutUse: Peek must return exactly what Value
// returns while leaving the least-used eviction order untouched, so stats
// collection cannot change which planes a capacity-limited set keeps.
func TestSetPeekMatchesValueWithoutUse(t *testing.T) {
	s, err := NewSet(2, linalg.Vector{-10, -10})
	if err != nil {
		t.Fatal(err)
	}
	s.SetCapacity(3)
	mustAdd := func(v linalg.Vector) {
		t.Helper()
		if _, err := s.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(linalg.Vector{-1, -9})
	mustAdd(linalg.Vector{-9, -1})
	for _, pi := range []pomdp.Belief{{1, 0}, {0, 1}, {0.5, 0.5}} {
		if got, want := s.Peek(pi), s.Value(pi); got != want {
			t.Errorf("Peek(%v) = %v, want Value = %v", pi, got, want)
		}
	}
	// Hammer Peek on the plane that Value-touches would protect. If Peek
	// bumped uses, plane (-9,-1) would now be the most used and survive the
	// next eviction; it must still be evicted on usage recorded by Value.
	s2, _ := NewSet(2, linalg.Vector{-10, -10})
	s2.SetCapacity(3)
	if _, err := s2.Add(linalg.Vector{-1, -9}); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Add(linalg.Vector{-9, -1}); err != nil {
		t.Fatal(err)
	}
	s2.Value(pomdp.Belief{1, 0}) // one real use of plane (-1,-9)
	for i := 0; i < 100; i++ {
		s2.Peek(pomdp.Belief{0, 1}) // would bump (-9,-1) if Peek counted
	}
	if _, err := s2.Add(linalg.Vector{-5, -5}); err != nil {
		t.Fatal(err)
	}
	if got := s2.Value(pomdp.Belief{0, 1}); got != -5 {
		t.Errorf("Peek perturbed eviction: Value = %v, want -5", got)
	}
	if s2.Evictions() != 1 {
		t.Errorf("Evictions = %d, want 1", s2.Evictions())
	}
}

// TestSetEvictionsCounter counts capacity evictions across several Adds.
func TestSetEvictionsCounter(t *testing.T) {
	s, err := NewSet(2, linalg.Vector{-10, -10})
	if err != nil {
		t.Fatal(err)
	}
	if s.Evictions() != 0 {
		t.Fatalf("fresh set Evictions = %d", s.Evictions())
	}
	s.SetCapacity(2)
	planes := []linalg.Vector{{-1, -9}, {-9, -1}, {-2, -8}, {-8, -2}}
	for _, p := range planes {
		if _, err := s.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	// Capacity 2 with a protected base: every Add after the first evicts.
	if got := s.Evictions(); got != 3 {
		t.Errorf("Evictions = %d, want 3", got)
	}
}

// TestSetGeneration: every mutation of the plane slab — a kept Add, an Add
// that prunes, a capacity eviction, a CompactLP removal and UnmarshalJSON —
// advances Generation, and a discarded (dominated) Add, evaluation and
// SetCapacity leave it alone. Decision tables key their entries on it.
func TestSetGeneration(t *testing.T) {
	s, err := NewSet(2, linalg.Vector{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	step := func(what string, bumps bool, mutate func()) {
		t.Helper()
		before := s.Generation()
		mutate()
		if moved := s.Generation() != before; moved != bumps {
			t.Errorf("%s: generation %d -> %d, want a bump: %v", what, before, s.Generation(), bumps)
		}
	}
	add := func(v linalg.Vector, wantKept bool) func() {
		return func() {
			t.Helper()
			kept, err := s.Add(v)
			if err != nil {
				t.Fatal(err)
			}
			if kept != wantKept {
				t.Fatalf("Add(%v) kept=%v, want %v", v, kept, wantKept)
			}
		}
	}
	step("kept Add", true, add(linalg.Vector{0, 0.5}, true))
	step("discarded Add", false, add(linalg.Vector{-1, -1}, false))
	step("pruning Add", true, add(linalg.Vector{0, 1}, true))
	if s.Size() != 2 {
		t.Fatalf("size after pruning Add = %d, want 2", s.Size())
	}
	step("evaluation", false, func() {
		s.Value(pomdp.Belief{0.5, 0.5})
		s.ValueBatch([]pomdp.Belief{{1, 0}}, nil, nil)
		s.Peek(pomdp.Belief{0, 1})
	})
	step("SetCapacity", false, func() { s.SetCapacity(2) })
	step("eviction Add", true, add(linalg.Vector{0.6, 0.6}, true))
	if s.Evictions() != 1 || s.Size() != 2 {
		t.Fatalf("evictions %d, size %d; want 1 eviction, size 2", s.Evictions(), s.Size())
	}
	s.SetCapacity(0)
	// (0, 2) lifts max{(1,0), (0,2)} above (0.6, 0.6) everywhere without
	// dominating it pointwise, so only CompactLP can remove it.
	step("kept Add", true, add(linalg.Vector{0, 2}, true))
	step("CompactLP removal", true, func() {
		if removed, err := s.CompactLP(); err != nil || removed == 0 {
			t.Fatalf("CompactLP removed %d (err %v), want a removal", removed, err)
		}
	})
	step("CompactLP keeping every plane", false, func() {
		if removed, err := s.CompactLP(); err != nil || removed != 0 {
			t.Fatalf("CompactLP removed %d (err %v), want none", removed, err)
		}
	})
	data, err := s.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	step("UnmarshalJSON", true, func() {
		if err := s.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
	})
}
