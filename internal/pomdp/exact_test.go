package pomdp

import (
	"errors"
	"math"
	"testing"

	"bpomdp/internal/rng"
)

// lpK evaluates (L_p^k 0)(π) by recursive expansion — an independent
// implementation of the k-horizon value used to cross-validate the exact
// vector-set solver.
func lpK(t *testing.T, p *POMDP, pi Belief, k int) float64 {
	t.Helper()
	if k == 0 {
		return 0
	}
	sc := NewScratch(p)
	res, err := Backup(p, sc, pi, 1, ValueFunc(func(b Belief) float64 {
		return lpK(t, p, b, k-1)
	}))
	if err != nil {
		t.Fatal(err)
	}
	return res.Value
}

func TestExactFiniteHorizonMatchesRecursiveExpansion(t *testing.T) {
	p := twoServer(t, 0.9, 0.05)
	r := rng.New(31)
	for k := 0; k <= 3; k++ {
		vs, err := ExactFiniteHorizon(p, 1, k, 0)
		if err != nil {
			t.Fatalf("horizon %d: %v", k, err)
		}
		if len(vs) == 0 {
			t.Fatalf("horizon %d: empty vector set", k)
		}
		for trial := 0; trial < 10; trial++ {
			pi := make(Belief, 3)
			for i := range pi {
				pi[i] = r.Float64()
			}
			if !pi.Vec().Normalize() {
				continue
			}
			exact := ValueOfVectorSet(vs, pi)
			recursive := lpK(t, p, pi, k)
			if !almostEqual(exact, recursive, 1e-9) {
				t.Errorf("horizon %d trial %d: vector-set %v != recursion %v", k, trial, exact, recursive)
			}
		}
	}
}

func TestExactFiniteHorizonMonotoneForNegativeModels(t *testing.T) {
	// With non-positive rewards the k-horizon values decrease in k toward
	// the infinite-horizon value function.
	p := twoServer(t, 0.9, 0.05)
	pi := UniformBelief(3)
	prev := 0.0
	for k := 1; k <= 4; k++ {
		vs, err := ExactFiniteHorizon(p, 1, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		v := ValueOfVectorSet(vs, pi)
		if v > prev+1e-9 {
			t.Errorf("horizon %d: value %v increased above %v", k, v, prev)
		}
		prev = v
	}
}

func TestExactFiniteHorizonDiscounted(t *testing.T) {
	p := twoServer(t, 1, 0)
	vs, err := ExactFiniteHorizon(p, 0.9, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// At the fault-a point belief, the best two-step plan is restart-a then
	// anything free: value -0.5 (immediate) + 0.9·0 = -0.5.
	got := ValueOfVectorSet(vs, PointBelief(3, 1))
	if !almostEqual(got, -0.5, 1e-9) {
		t.Errorf("two-step value at fault-a = %v, want -0.5", got)
	}
}

func TestExactFiniteHorizonVectorBudget(t *testing.T) {
	p := twoServer(t, 0.9, 0.05)
	_, err := ExactFiniteHorizon(p, 1, 4, 3)
	if !errors.Is(err, ErrTooManyVectors) {
		t.Errorf("err = %v, want ErrTooManyVectors", err)
	}
}

func TestExactFiniteHorizonValidation(t *testing.T) {
	p := twoServer(t, 0.9, 0.05)
	if _, err := ExactFiniteHorizon(p, 0, 1, 0); err == nil {
		t.Error("beta=0 accepted")
	}
	if _, err := ExactFiniteHorizon(p, 1, -1, 0); err == nil {
		t.Error("negative horizon accepted")
	}
}

func TestValueOfVectorSetEmpty(t *testing.T) {
	if v := ValueOfVectorSet(nil, UniformBelief(2)); !math.IsInf(v, -1) {
		t.Errorf("empty set value = %v", v)
	}
}
