package bounds

import (
	"encoding/json"
	"errors"
	"math"
	"testing"

	"bpomdp/internal/linalg"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
)

func TestUpperBoundSawtooth(t *testing.T) {
	u, err := NewUpperBound(linalg.Vector{0, -10, -20})
	if err != nil {
		t.Fatal(err)
	}
	// With no points the bound is the corner plane.
	pi := pomdp.Belief{0.5, 0.25, 0.25}
	if got, want := u.Value(pi), -10*0.25-20*0.25; !almostEqual(got, want, 1e-12) {
		t.Errorf("corner-only value %v, want %v", got, want)
	}
	// A point below the corner plane pulls the interpolation down.
	p := pomdp.Belief{0, 0.5, 0.5}
	added, err := u.AddPoint(p, -18)
	if err != nil {
		t.Fatal(err)
	}
	if !added {
		t.Fatal("improving point not added")
	}
	// At the point itself the bound is now the stored value.
	if got := u.Value(p); !almostEqual(got, -18, 1e-12) {
		t.Errorf("value at stored point %v, want -18", got)
	}
	// Between corner and point: base + mu*(v - U0·c) with mu = 0.25/0.5.
	if got, want := u.Value(pi), (-10*0.25-20*0.25)+0.5*(-18-(-15)); !almostEqual(got, want, 1e-12) {
		t.Errorf("interpolated value %v, want %v", got, want)
	}
	// A non-improving point is discarded.
	if added, _ := u.AddPoint(p, -17); added {
		t.Error("non-improving point accepted")
	}
	if u.NumPoints() != 1 {
		t.Fatalf("points %d, want 1", u.NumPoints())
	}
	// A bit-identical belief with a lower value updates in place.
	if added, _ := u.AddPoint(p, -19); !added {
		t.Error("in-place lowering rejected")
	}
	if u.NumPoints() != 1 {
		t.Errorf("dedup failed: %d points", u.NumPoints())
	}
	if got := u.Value(p); !almostEqual(got, -19, 1e-12) {
		t.Errorf("value after in-place lowering %v, want -19", got)
	}
}

func TestUpperBoundValidation(t *testing.T) {
	if _, err := NewUpperBound(nil); err == nil {
		t.Error("empty corner accepted")
	}
	u, err := NewUpperBound(linalg.Vector{0, -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.AddPoint(pomdp.Belief{1}, 0); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := u.AddPoint(pomdp.Belief{0.5, 0.5}, naN()); err == nil {
		t.Error("NaN point value accepted")
	}
}

func naN() float64 { z := 0.0; return z / z }

// denseUpperValue is the sawtooth interpolation scanned over all n entries
// of every stored point, as UpperBound.Value computed it before the support
// index: the reference the indexed Value must match bit for bit.
func denseUpperValue(u *UpperBound, pi pomdp.Belief) float64 {
	base := linalg.DotUnrolled(pi, u.corner)
	best := base
	for i := range u.vals {
		drop := u.vals[i] - u.cornerAt[i]
		if drop >= 0 {
			continue
		}
		c := u.pts[i*u.n : (i+1)*u.n]
		mu := math.Inf(1)
		for s, cs := range c {
			if cs <= 0 {
				continue
			}
			if r := pi[s] / cs; r < mu {
				mu = r
				if r == 0 {
					break
				}
			}
		}
		if mu <= 0 || math.IsInf(mu, 1) {
			continue
		}
		if v := base + mu*drop; v < best {
			best = v
		}
	}
	return best
}

// sawtoothQuery draws a belief to evaluate a sawtooth at: a scanBelief, a
// stored point, or a stored point with mass added on other states, now and
// then with a negative entry or one small enough that π(s)/c(s) underflows.
func sawtoothQuery(r *rng.Stream, n int, pts []pomdp.Belief) pomdp.Belief {
	switch r.IntN(4) {
	case 0:
		return scanBelief(r, n)
	case 1:
		return pts[r.IntN(len(pts))].Clone()
	}
	pi := pts[r.IntN(len(pts))].Clone()
	for s := range pi {
		if r.IntN(3) == 0 {
			pi[s] += r.Float64()
		}
	}
	if r.IntN(8) == 0 {
		pi[r.IntN(n)] = -1e-3
	}
	if r.IntN(8) == 0 {
		pi[r.IntN(n)] = 1e-300
	}
	return pi
}

// TestUpperBoundValueMatchesDense pins the support-indexed Value to the
// dense scan bit for bit (math.Float64bits) on random sawtooth bounds over
// 3 to 300 states: points dense or sparse, with +0 and −0 entries and now
// and then a 1e300 entry; queries at stored points, on supersets of their
// supports, and elsewhere. It checks a fresh bound, the same bound after
// in-place lowering, and its JSON round trip, whose decoder must rebuild
// the index.
func TestUpperBoundValueMatchesDense(t *testing.T) {
	r := rng.New(34)
	for _, n := range []int{3, 15, 64, 65, 300} {
		corner := make(linalg.Vector, n)
		for s := range corner {
			if r.IntN(5) > 0 {
				corner[s] = -10 * r.Float64()
			}
		}
		u, err := NewUpperBound(corner)
		if err != nil {
			t.Fatal(err)
		}
		var pts []pomdp.Belief
		for k := 0; k < 80; k++ {
			c := scanBelief(r, n)
			if r.IntN(8) == 0 {
				c[r.IntN(n)] = 1e300
			}
			v := u.Value(c)
			if _, err := u.AddPoint(c, v-1-math.Abs(v)*r.Float64()); err != nil {
				t.Fatal(err)
			}
			if u.NumPoints() > len(pts) {
				pts = append(pts, c)
			}
		}
		contributed := 0
		check := func(stage string, b *UpperBound) {
			t.Helper()
			for k := 0; k < 500; k++ {
				pi := sawtoothQuery(r, n, pts)
				got, want := b.Value(pi), denseUpperValue(b, pi)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d %s: Value %v (%#x), dense scan %v (%#x) at %v",
						n, stage, got, math.Float64bits(got), want, math.Float64bits(want), pi)
				}
				if got < linalg.DotUnrolled(pi, b.corner) {
					contributed++
				}
			}
		}
		check("fresh", u)
		for k := 0; k < 20; k++ {
			c := pts[r.IntN(len(pts))]
			v := u.Value(c)
			if lowered, err := u.AddPoint(c.Clone(), v-1-math.Abs(v)/2); err != nil || !lowered {
				t.Fatalf("n=%d: in-place lowering: changed %v, error %v", n, lowered, err)
			}
		}
		if u.NumPoints() != len(pts) {
			t.Fatalf("n=%d: %d points after lowering, want %d", n, u.NumPoints(), len(pts))
		}
		check("lowered", u)
		data, err := json.Marshal(u)
		if err != nil {
			t.Fatal(err)
		}
		var back UpperBound
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		check("decoded", &back)
		if contributed == 0 {
			t.Errorf("n=%d: no query was lowered by a point; the pin is vacuous", n)
		}
	}
}

// TestRefinerBoundCrossing is the table test for the inversion refusal: a
// refiner handed a corrupt pair — upper below lower anywhere it looks — must
// return ErrBoundCrossing rather than emit inverted bounds, whether the
// crossing is visible at the root or only at an interior point planted off
// the corner plane.
func TestRefinerBoundCrossing(t *testing.T) {
	r := rng.New(77)
	mod := randomRecoveryModel(t, r, 4, 2, 3)
	n := mod.NumStates()
	ra, err := RA(mod, Options{})
	if err != nil {
		t.Fatal(err)
	}
	root := pomdp.UniformBelief(n)

	cases := []struct {
		name string
		// corrupt mutates a freshly built valid (set, upper) pair.
		corrupt   func(t *testing.T, set *Set, upper *UpperBound) *UpperBound
		wantCross bool
	}{
		{
			name: "valid pair refines cleanly",
			corrupt: func(t *testing.T, set *Set, upper *UpperBound) *UpperBound {
				return upper
			},
			wantCross: false,
		},
		{
			name: "corner below lower bound at root",
			corrupt: func(t *testing.T, set *Set, upper *UpperBound) *UpperBound {
				// A corner far below the RA plane inverts the pair everywhere.
				low := make(linalg.Vector, n)
				for s := range low {
					low[s] = ra[s] - 100
				}
				bad, err := NewUpperBound(low)
				if err != nil {
					t.Fatal(err)
				}
				return bad
			},
			wantCross: true,
		},
		{
			name: "poisoned sawtooth point below lower bound",
			corrupt: func(t *testing.T, set *Set, upper *UpperBound) *UpperBound {
				// Corner stays valid; one planted point dips below the lower
				// bound, so the crossing only surfaces at/near that belief.
				if _, err := upper.AddPoint(root, set.Peek(root)-50); err != nil {
					t.Fatal(err)
				}
				return upper
			},
			wantCross: true,
		},
		{
			name: "lower planes above the upper bound",
			corrupt: func(t *testing.T, set *Set, upper *UpperBound) *UpperBound {
				// Corrupt the lower side instead: a hyperplane above QMDP.
				high := make(linalg.Vector, n)
				for s := range high {
					high[s] = upper.Corner()[s] + 25
				}
				if _, err := set.Add(high); err != nil {
					t.Fatal(err)
				}
				return upper
			},
			wantCross: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set, err := NewSet(n, ra)
			if err != nil {
				t.Fatal(err)
			}
			corner, err := QMDP(mod, Options{})
			if err != nil {
				t.Fatal(err)
			}
			upper, err := NewUpperBound(corner)
			if err != nil {
				t.Fatal(err)
			}
			upper = tc.corrupt(t, set, upper)
			ref, err := NewRefiner(mod, set, upper, RefineConfig{MaxTrials: 32})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := ref.Run(root)
			if tc.wantCross {
				if !errors.Is(err, ErrBoundCrossing) {
					t.Fatalf("Run error = %v, want ErrBoundCrossing (report %+v)", err, rep)
				}
				return
			}
			if err != nil {
				t.Fatalf("Run on valid pair: %v", err)
			}
			if rep.FinalGap > rep.InitialGap {
				t.Errorf("root gap widened: %v -> %v", rep.InitialGap, rep.FinalGap)
			}
			if g, err := ref.GapAt(root); err != nil || g < 0 {
				t.Errorf("root gap after refinement: %v, %v", g, err)
			}
		})
	}
}

// TestRefinerMonotoneGapProperty is the generative monotonicity test: across
// random recovery models, one extra refinement pass may never widen the bound
// gap at ANY belief — not just the root — because Set.Add only raises the
// lower envelope and UpperBound.AddPoint only lowers the sawtooth. The sets
// are uncapped (no least-used eviction), which is the regime the guarantee
// holds in.
func TestRefinerMonotoneGapProperty(t *testing.T) {
	root := rng.New(9090)
	for trial := 0; trial < 8; trial++ {
		r := root.SplitN("model", trial)
		nStates := 3 + r.IntN(4)
		mod := randomRecoveryModel(t, r, nStates, 2+r.IntN(3), 2+r.IntN(3))
		n := mod.NumStates()
		ra, err := RA(mod, Options{})
		if err != nil {
			t.Fatal(err)
		}
		set, err := NewSet(n, ra)
		if err != nil {
			t.Fatal(err)
		}
		corner, err := QMDP(mod, Options{})
		if err != nil {
			t.Fatal(err)
		}
		upper, err := NewUpperBound(corner)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewRefiner(mod, set, upper, RefineConfig{MaxTrials: 1, Epsilon: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		// Fixed probe beliefs, sampled before any refinement.
		probes := make([]pomdp.Belief, 0, 16)
		probes = append(probes, pomdp.UniformBelief(n))
		for s := 0; s < n; s++ {
			probes = append(probes, pomdp.PointBelief(n, s))
		}
		for i := 0; i < 8; i++ {
			probes = append(probes, randomBelief(r, n))
		}
		gap := func(pi pomdp.Belief) float64 {
			g, err := ref.GapAt(pi)
			if err != nil {
				t.Fatalf("trial %d: gap: %v", trial, err)
			}
			return g
		}
		prev := make([]float64, len(probes))
		for i, pi := range probes {
			prev[i] = gap(pi)
		}
		start := pomdp.UniformBelief(n)
		for pass := 0; pass < 6; pass++ {
			rep, err := ref.Run(start)
			if err != nil {
				t.Fatalf("trial %d pass %d: %v (report %+v)", trial, pass, err, rep)
			}
			if rep.FinalGap > rep.InitialGap+1e-9 {
				t.Errorf("trial %d pass %d: root gap widened %v -> %v", trial, pass, rep.InitialGap, rep.FinalGap)
			}
			for i, pi := range probes {
				g := gap(pi)
				if g > prev[i]+1e-9 {
					t.Errorf("trial %d pass %d probe %d: gap widened %v -> %v", trial, pass, i, prev[i], g)
				}
				prev[i] = g
			}
		}
	}
}

// TestRefinerConvergesOnRandomModels pins that refinement with a full budget
// drives the root gap to epsilon on small random recovery models and that the
// refined lower bound still satisfies the paper's Property 1(b) consistency
// check at the root.
func TestRefinerConvergesOnRandomModels(t *testing.T) {
	root := rng.New(31337)
	for trial := 0; trial < 6; trial++ {
		r := root.SplitN("model", trial)
		mod := randomRecoveryModel(t, r, 3+r.IntN(3), 2+r.IntN(2), 2+r.IntN(2))
		n := mod.NumStates()
		ra, err := RA(mod, Options{})
		if err != nil {
			t.Fatal(err)
		}
		set, err := NewSet(n, ra)
		if err != nil {
			t.Fatal(err)
		}
		corner, err := QMDP(mod, Options{})
		if err != nil {
			t.Fatal(err)
		}
		upper, err := NewUpperBound(corner)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewRefiner(mod, set, upper, RefineConfig{Epsilon: 1e-6, MaxTrials: 512})
		if err != nil {
			t.Fatal(err)
		}
		start := pomdp.UniformBelief(n)
		rep, err := ref.Run(start)
		if err != nil {
			t.Fatalf("trial %d: %v (report %+v)", trial, err, rep)
		}
		if !rep.Converged {
			t.Errorf("trial %d: did not converge: %+v", trial, rep)
			continue
		}
		if rep.FinalGap > 1e-6 {
			t.Errorf("trial %d: final gap %v above epsilon", trial, rep.FinalGap)
		}
		sc := pomdp.NewScratch(mod)
		crep, err := CheckConsistency(mod, sc, set, start, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !crep.OK {
			t.Errorf("trial %d: refined lower bound violates Property 1(b)", trial)
		}
	}
}
