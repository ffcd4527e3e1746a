package bounds

import (
	"errors"
	"math"
	"testing"

	"bpomdp/internal/linalg"
	"bpomdp/internal/models"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// withNotification returns the two-server model transformed for the
// recovery-notification regime (Sφ absorbed), as in Figure 2(a).
func withNotification(t *testing.T) *pomdp.POMDP {
	t.Helper()
	ts, err := models.NewTwoServer(models.TwoServerConfig{Coverage: 1})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := pomdp.AbsorbNullStates(ts.Model, ts.NullStates)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// withoutNotification returns the noisy two-server model extended with the
// terminate action, as in Figure 2(b), with t_op = 10.
func withoutNotification(t *testing.T) (*pomdp.POMDP, pomdp.TerminationIndices) {
	t.Helper()
	ts, err := models.NewTwoServer(models.TwoServerConfig{Coverage: 0.9, FalsePositive: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	mod, idx, err := pomdp.WithTermination(ts.Model, pomdp.TerminationConfig{
		NullStates:           ts.NullStates,
		OperatorResponseTime: 10,
		RateReward:           ts.RateRewards,
	})
	if err != nil {
		t.Fatal(err)
	}
	return mod, idx
}

func TestRAWithNotificationClosedForm(t *testing.T) {
	// Uniform random action from fault-a: restart-a (-0.5, ->null),
	// restart-b (-1, stay), observe (-0.5, stay). Mean reward -2/3, escape
	// probability 1/3, so V = -2. Null is absorbing at 0.
	mod := withNotification(t)
	v, err := RA(mod, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(v[0], 0, 1e-8) || !almostEqual(v[1], -2, 1e-6) || !almostEqual(v[2], -2, 1e-6) {
		t.Errorf("RA = %v, want [0 -2 -2]", v)
	}
}

func TestRAWithoutNotificationClosedForm(t *testing.T) {
	// Four actions, uniform: from null the mean reward is -0.25 with 3/4
	// self-loop => V(null) = -1. From a fault state: rewards
	// (-0.5, -1, -0.5, -5) => mean -7/4; transitions 1/4 null, 1/2 self,
	// 1/4 sT => V = -4. sT absorbs at 0.
	mod, idx := withoutNotification(t)
	v, err := RA(mod, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(v[0], -1, 1e-6) {
		t.Errorf("V(null) = %v, want -1", v[0])
	}
	if !almostEqual(v[1], -4, 1e-6) || !almostEqual(v[2], -4, 1e-6) {
		t.Errorf("V(fault) = %v/%v, want -4", v[1], v[2])
	}
	if !almostEqual(v[idx.State], 0, 1e-9) {
		t.Errorf("V(sT) = %v, want 0", v[idx.State])
	}
}

func TestRADivergesWithoutTransform(t *testing.T) {
	// The raw no-notification model (no absorbing states at all, every
	// action has cost somewhere, null state keeps accruing restart costs
	// under the uniform policy) has no finite RA solution.
	ts, err := models.NewTwoServer(models.TwoServerConfig{Coverage: 0.9, FalsePositive: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	_, err = RA(ts.Model, Options{Solver: linalg.FixedPointOptions{MaxIter: 20000}})
	if !errors.Is(err, linalg.ErrNoConvergence) {
		t.Errorf("err = %v, want ErrNoConvergence", err)
	}
}

// lpIterate evaluates (L_p^k 0)(π) by recursive expansion. Because all
// rewards are non-positive, these iterates decrease monotonically to the
// POMDP value function, so they upper-bound it — and hence any valid lower
// bound must stay below every iterate.
func lpIterate(t *testing.T, p *pomdp.POMDP, pi pomdp.Belief, k int) float64 {
	t.Helper()
	if k == 0 {
		return 0
	}
	sc := pomdp.NewScratch(p)
	res, err := pomdp.Backup(p, sc, pi, 1, pomdp.ValueFunc(func(b pomdp.Belief) float64 {
		return lpIterate(t, p, b, k-1)
	}))
	if err != nil {
		t.Fatal(err)
	}
	return res.Value
}

func randomBelief(r *rng.Stream, n int) pomdp.Belief {
	b := make(pomdp.Belief, n)
	for i := range b {
		b[i] = r.Float64()
	}
	if !b.Vec().Normalize() {
		b[0] = 1
	}
	return b
}

func TestRAIsBelowLpIterates(t *testing.T) {
	for name, build := range map[string]func() *pomdp.POMDP{
		"notification":   func() *pomdp.POMDP { return withNotification(t) },
		"noNotification": func() *pomdp.POMDP { m, _ := withoutNotification(t); return m },
	} {
		t.Run(name, func(t *testing.T) {
			mod := build()
			ra, err := RA(mod, Options{})
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(5)
			for trial := 0; trial < 10; trial++ {
				pi := randomBelief(r, mod.NumStates())
				bound := linalg.Vector(pi).Dot(ra)
				for k := 1; k <= 3; k++ {
					if upper := lpIterate(t, mod, pi, k); bound > upper+1e-7 {
						t.Errorf("trial %d k=%d: RA %v > L_p^k 0 %v at %v", trial, k, bound, upper, pi)
					}
				}
			}
		})
	}
}

func TestRAConsistencyProperty1b(t *testing.T) {
	// With B = {RA-Bound}, Property 1(b) must hold: V_B ≤ L_p V_B.
	mod, _ := withoutNotification(t)
	set, err := RASet(mod, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc := pomdp.NewScratch(mod)
	r := rng.New(17)
	for trial := 0; trial < 25; trial++ {
		pi := randomBelief(r, mod.NumStates())
		rep, err := CheckConsistency(mod, sc, set, pi, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK {
			t.Errorf("trial %d: V_B %v > L_p V_B %v", trial, rep.Bound, rep.Backup)
		}
	}
}

func TestBIPOMDPDivergesUndiscounted(t *testing.T) {
	// Worst action makes no progress while accruing cost in both regimes —
	// the divergence the paper demonstrates.
	mod := withNotification(t)
	if _, err := BIPOMDP(mod, Options{Solver: linalg.FixedPointOptions{MaxIter: 20000}}); !errors.Is(err, ErrUnbounded) {
		t.Errorf("notification regime: err = %v, want ErrUnbounded", err)
	}
	mod2, _ := withoutNotification(t)
	if _, err := BIPOMDP(mod2, Options{Solver: linalg.FixedPointOptions{MaxIter: 20000}}); !errors.Is(err, ErrUnbounded) {
		t.Errorf("no-notification regime: err = %v, want ErrUnbounded", err)
	}
}

func TestBIPOMDPConvergesDiscountedAndBelowRA(t *testing.T) {
	mod := withNotification(t)
	opts := Options{Beta: 0.9}
	bi, err := BIPOMDP(mod, opts)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := RA(mod, opts)
	if err != nil {
		t.Fatal(err)
	}
	for s := range bi {
		if bi[s] > ra[s]+1e-7 {
			t.Errorf("state %d: BI %v > RA %v (min should lower-bound the mean)", s, bi[s], ra[s])
		}
	}
}

func TestBlindPolicyDivergesWithNotification(t *testing.T) {
	// No single action recovers from both fault states, so every blind
	// chain accrues unbounded cost somewhere.
	mod := withNotification(t)
	_, err := BlindPolicy(mod, Options{Solver: linalg.FixedPointOptions{MaxIter: 20000}})
	if !errors.Is(err, ErrUnbounded) {
		t.Errorf("err = %v, want ErrUnbounded", err)
	}
}

func TestBlindPolicyFiniteWithoutNotification(t *testing.T) {
	// The terminate action a_T gives a trivially finite plane, exactly as
	// the paper observes.
	mod, idx := withoutNotification(t)
	res, err := BlindPolicy(mod, Options{Solver: linalg.FixedPointOptions{MaxIter: 20000}})
	if err != nil {
		t.Fatal(err)
	}
	foundAT := false
	for i, a := range res.Actions {
		if a == idx.Action {
			foundAT = true
			// Blind a_T value = termination reward, then absorbed at 0.
			want := mod.M.Reward[idx.Action]
			if d := res.Planes[i].InfNormDiff(want); d > 1e-8 {
				t.Errorf("blind a_T plane differs from termination rewards by %g", d)
			}
		}
	}
	if !foundAT {
		t.Fatalf("terminate action not among convergent blind policies: %+v", res.Actions)
	}
	if len(res.Diverged) != 3 {
		t.Errorf("diverged actions = %v, want the 3 non-terminate actions", res.Diverged)
	}
}

func TestQMDPUpperBound(t *testing.T) {
	// MDP values for the perfectly observed two-server model: the optimal
	// action in each fault state is the matching restart, cost 0.5.
	mod := withNotification(t)
	up, err := QMDP(mod, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(up[0], 0, 1e-9) || !almostEqual(up[1], -0.5, 1e-8) || !almostEqual(up[2], -0.5, 1e-8) {
		t.Errorf("QMDP = %v, want [0 -0.5 -0.5]", up)
	}
	ra, err := RA(mod, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for s := range up {
		if up[s] < ra[s]-1e-8 {
			t.Errorf("state %d: QMDP %v < RA %v", s, up[s], ra[s])
		}
	}
}

func TestTrivialUpper(t *testing.T) {
	mod := withNotification(t)
	up, err := TrivialUpper(mod)
	if err != nil {
		t.Fatal(err)
	}
	if up.InfNorm() != 0 {
		t.Errorf("trivial upper = %v, want zeros", up)
	}
	// Force a positive reward to invalidate it.
	mod.M.Reward[0][0] = 1
	if _, err := TrivialUpper(mod); err == nil {
		t.Error("positive-reward model accepted")
	}
}
