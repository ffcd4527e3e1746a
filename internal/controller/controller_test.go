package controller

import (
	"errors"
	"math"
	"testing"

	"bpomdp/internal/bounds"
	"bpomdp/internal/models"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// fixtures ------------------------------------------------------------------

type fixture struct {
	ts   *models.TwoServer
	base *pomdp.POMDP // untransformed (for heuristic/most-likely/oracle)
	term *pomdp.POMDP // with terminate action (for bounded)
	idx  pomdp.TerminationIndices
	set  *bounds.Set
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	ts, err := models.NewTwoServer(models.TwoServerConfig{Coverage: 0.9, FalsePositive: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	term, idx, err := pomdp.WithTermination(ts.Model, pomdp.TerminationConfig{
		NullStates:           ts.NullStates,
		OperatorResponseTime: 10,
		RateReward:           ts.RateRewards,
	})
	if err != nil {
		t.Fatal(err)
	}
	set, err := bounds.RASet(term, bounds.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{ts: ts, base: ts.Model, term: term, idx: idx, set: set}
}

// episode drives a controller against a simulated true system drawn from
// the given model until it terminates, returning whether the system was
// actually recovered at termination and the number of steps taken.
func episode(t *testing.T, model *pomdp.POMDP, ctrl Controller, initialBelief pomdp.Belief, trueState int, stream *rng.Stream, maxSteps int) (recovered bool, steps int) {
	t.Helper()
	if err := ctrl.Reset(initialBelief); err != nil {
		t.Fatal(err)
	}
	nullState := 0 // "null" is state 0 in the two-server fixtures
	for steps = 0; steps < maxSteps; steps++ {
		if sa, ok := ctrl.(StateAware); ok {
			sa.ObserveTrueState(trueState)
		}
		d, err := ctrl.Decide()
		if err != nil {
			t.Fatal(err)
		}
		if d.Terminate {
			return trueState == nullState, steps
		}
		// Execute the action on the true system.
		weights := make([]float64, model.NumStates())
		model.M.Trans[d.Action].Row(trueState, func(c int, v float64) { weights[c] = v })
		next, err := stream.Categorical(weights)
		if err != nil {
			t.Fatal(err)
		}
		ow := make([]float64, model.NumObservations())
		model.Obs[d.Action].Row(next, func(o int, v float64) { ow[o] = v })
		obs, err := stream.Categorical(ow)
		if err != nil {
			t.Fatal(err)
		}
		trueState = next
		if err := ctrl.Observe(d.Action, obs); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatalf("%s did not terminate within %d steps", ctrl.Name(), maxSteps)
	return false, steps
}

// engine --------------------------------------------------------------------

func TestNewEngineValidation(t *testing.T) {
	f := newFixture(t)
	zero := pomdp.ValueFunc(func(pomdp.Belief) float64 { return 0 })
	if _, err := NewEngine(f.term, 0, 1, zero); err == nil {
		t.Error("depth 0 accepted")
	}
	if _, err := NewEngine(f.term, 1, 1.5, zero); err == nil {
		t.Error("beta 1.5 accepted")
	}
	if _, err := NewEngine(f.term, 1, 1, nil); err == nil {
		t.Error("nil leaf accepted")
	}
}

func TestEngineChooseDepth1ClosedForm(t *testing.T) {
	// At the point belief on fault-a with the RA-Bound leaf
	// V_ra = [-1, -4, -4, 0]:
	//   Q(restart-a) = -0.5 + V_ra(null)    = -1.5   <- max
	//   Q(restart-b) = -1   + V_ra(fault-a) = -5
	//   Q(observe)   = -0.5 + V_ra(fault-a) = -4.5
	//   Q(a_T)       = -5   + V_ra(s_T)     = -5
	// (the expectation over observations of a linear leaf collapses to the
	// pushed-forward belief dotted with the hyperplane).
	f := newFixture(t)
	engine, err := NewEngine(f.term, 1, 1, f.set)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Choose(pomdp.PointBelief(f.term.NumStates(), 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != 0 {
		t.Errorf("action = %s, want restart-a", f.term.M.ActionName(res.Action))
	}
	want := []float64{-1.5, -5, -4.5, -5}
	for a, w := range want {
		if !almostEqual(res.QValues[a], w, 1e-6) {
			t.Errorf("Q[%s] = %v, want %v", f.term.M.ActionName(a), res.QValues[a], w)
		}
	}
	if engine.Depth() != 1 {
		t.Errorf("Depth = %d", engine.Depth())
	}
}

func TestEngineDeeperSearchNotWorse(t *testing.T) {
	// With non-positive rewards, L_p is monotone and L_p^k 0 decreases with
	// k, but the *root value with a fixed lower-bound leaf* must not
	// decrease with depth: one more backup of a consistent bound can only
	// tighten it upward (V_B ≤ L_p V_B).
	f := newFixture(t)
	pi := pomdp.UniformBelief(f.term.NumStates())
	var prev float64
	for depth := 1; depth <= 3; depth++ {
		engine, err := NewEngine(f.term, depth, 1, f.set)
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.Choose(pi)
		if err != nil {
			t.Fatal(err)
		}
		v := res.Value
		ref, err := refChoose(f.term, depth, 1, f.set, pi, &EngineCounters{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(v) != math.Float64bits(ref.Value) {
			t.Errorf("depth %d value %v, reference recursion %v", depth, v, ref.Value)
		}
		if depth > 1 && v < prev-1e-9 {
			t.Errorf("depth %d value %v < depth %d value %v", depth, v, depth-1, prev)
		}
		prev = v
	}
}

// bounded -------------------------------------------------------------------

func TestNewBoundedValidation(t *testing.T) {
	f := newFixture(t)
	if _, err := NewBounded(f.term, nil, BoundedConfig{TerminateAction: f.idx.Action}); err == nil {
		t.Error("nil set accepted")
	}
	empty, err := bounds.NewSet(f.term.NumStates())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBounded(f.term, empty, BoundedConfig{TerminateAction: f.idx.Action}); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := NewBounded(f.term, f.set, BoundedConfig{TerminateAction: 99}); err == nil {
		t.Error("out-of-range terminate action accepted")
	}
	if _, err := NewBounded(f.term, f.set, BoundedConfig{TerminateAction: -1}); err == nil {
		t.Error("notification regime without NullStates accepted")
	}
}

func TestBoundedRequiresReset(t *testing.T) {
	f := newFixture(t)
	ctrl, err := NewBounded(f.term, f.set, BoundedConfig{TerminateAction: f.idx.Action})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Decide(); !errors.Is(err, ErrNotReset) {
		t.Errorf("Decide before Reset: %v", err)
	}
	if err := ctrl.Observe(0, 0); !errors.Is(err, ErrNotReset) {
		t.Errorf("Observe before Reset: %v", err)
	}
	if ctrl.Belief() != nil {
		t.Error("Belief before Reset should be nil")
	}
}

func TestBoundedRejectsBadInitialBelief(t *testing.T) {
	f := newFixture(t)
	ctrl, err := NewBounded(f.term, f.set, BoundedConfig{TerminateAction: f.idx.Action})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Reset(pomdp.Belief{0.5, 0.5}); err == nil {
		t.Error("short belief accepted")
	}
	if err := ctrl.Reset(pomdp.Belief{2, -1, 0, 0}); err == nil {
		t.Error("non-distribution accepted")
	}
}

func TestBoundedRecoversAndTerminates(t *testing.T) {
	f := newFixture(t)
	ctrl, err := NewBounded(f.term, f.set, BoundedConfig{
		Depth:            1,
		TerminateAction:  f.idx.Action,
		NullStates:       []int{0},
		ImproveOnline:    true,
		CheckConsistency: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	root := rng.New(1234)
	initial, err := pomdp.UniformOver(f.term.NumStates(), []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	recoveredAll := true
	for ep := 0; ep < 50; ep++ {
		stream := root.SplitN("ep", ep)
		trueState := 1 + stream.IntN(2) // fault-a or fault-b
		rec, _ := episode(t, f.term, ctrl, initial, trueState, stream, 200)
		if !rec {
			recoveredAll = false
		}
	}
	if !recoveredAll {
		t.Error("bounded controller terminated before recovery in some episode (paper: never happened in 10,000 injections)")
	}
	if ctrl.Set() != f.set {
		t.Error("Set accessor mismatch")
	}
}

func TestBoundedNotificationRegime(t *testing.T) {
	// Perfect monitor: recovery notification; the controller stops on
	// certainty of Sφ without any terminate action.
	ts, err := models.NewTwoServer(models.TwoServerConfig{Coverage: 1})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := pomdp.AbsorbNullStates(ts.Model, ts.NullStates)
	if err != nil {
		t.Fatal(err)
	}
	set, err := bounds.RASet(mod, bounds.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewBounded(mod, set, BoundedConfig{
		Depth:           1,
		TerminateAction: -1,
		NullStates:      ts.NullStates,
	})
	if err != nil {
		t.Fatal(err)
	}
	root := rng.New(77)
	for ep := 0; ep < 20; ep++ {
		stream := root.SplitN("ep", ep)
		trueState := 1 + stream.IntN(2)
		rec, _ := episode(t, ts.Model, ctrl, pomdp.UniformBelief(3), trueState, stream, 100)
		if !rec {
			t.Fatalf("episode %d: terminated unrecovered under recovery notification", ep)
		}
	}
}

// heuristic -----------------------------------------------------------------

func TestNewHeuristicValidation(t *testing.T) {
	f := newFixture(t)
	if _, err := NewHeuristic(f.base, HeuristicConfig{TerminationProbability: 0.999}); err == nil {
		t.Error("missing NullStates accepted")
	}
	if _, err := NewHeuristic(f.base, HeuristicConfig{NullStates: []int{0}}); err == nil {
		t.Error("zero termination probability accepted")
	}
	if _, err := NewHeuristic(f.base, HeuristicConfig{NullStates: []int{0}, TerminationProbability: 2}); err == nil {
		t.Error("termination probability 2 accepted")
	}
}

func TestHeuristicRecoversAndTerminates(t *testing.T) {
	f := newFixture(t)
	for _, depth := range []int{1, 2} {
		ctrl, err := NewHeuristic(f.base, HeuristicConfig{
			Depth:                  depth,
			NullStates:             []int{0},
			TerminationProbability: 0.999,
		})
		if err != nil {
			t.Fatal(err)
		}
		root := rng.New(uint64(100 + depth))
		for ep := 0; ep < 20; ep++ {
			stream := root.SplitN("ep", ep)
			trueState := 1 + stream.IntN(2)
			rec, _ := episode(t, f.base, ctrl, pomdp.UniformBelief(3), trueState, stream, 300)
			if !rec {
				t.Errorf("depth %d episode %d: terminated unrecovered", depth, ep)
			}
		}
	}
}

// most likely ---------------------------------------------------------------

func TestNewMostLikelyValidation(t *testing.T) {
	f := newFixture(t)
	if _, err := NewMostLikely(f.base, MostLikelyConfig{TerminationProbability: 0.99}); err == nil {
		t.Error("missing NullStates accepted")
	}
	if _, err := NewMostLikely(f.base, MostLikelyConfig{NullStates: []int{0}}); err == nil {
		t.Error("zero termination probability accepted")
	}
	if _, err := NewMostLikely(f.base, MostLikelyConfig{NullStates: []int{42}, TerminationProbability: 0.99}); err == nil {
		t.Error("out-of-range null state accepted")
	}
}

func TestMostLikelyPicksMatchingRestart(t *testing.T) {
	f := newFixture(t)
	ctrl, err := NewMostLikely(f.base, MostLikelyConfig{
		NullStates:             []int{0},
		TerminationProbability: 0.999,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Reset(pomdp.Belief{0.1, 0.7, 0.2}); err != nil {
		t.Fatal(err)
	}
	d, err := ctrl.Decide()
	if err != nil {
		t.Fatal(err)
	}
	if d.Terminate || d.Action != 0 {
		t.Errorf("decision = %+v, want restart-a", d)
	}
}

func TestMostLikelyRecoversAndTerminates(t *testing.T) {
	f := newFixture(t)
	ctrl, err := NewMostLikely(f.base, MostLikelyConfig{
		NullStates:             []int{0},
		TerminationProbability: 0.999,
	})
	if err != nil {
		t.Fatal(err)
	}
	root := rng.New(55)
	for ep := 0; ep < 20; ep++ {
		stream := root.SplitN("ep", ep)
		trueState := 1 + stream.IntN(2)
		rec, _ := episode(t, f.base, ctrl, pomdp.UniformBelief(3), trueState, stream, 300)
		if !rec {
			t.Errorf("episode %d: terminated unrecovered", ep)
		}
	}
}

// oracle --------------------------------------------------------------------

func TestOracleSingleActionRecovery(t *testing.T) {
	f := newFixture(t)
	ctrl, err := NewOracle(f.base, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	root := rng.New(9)
	for ep := 0; ep < 10; ep++ {
		stream := root.SplitN("ep", ep)
		trueState := 1 + stream.IntN(2)
		rec, steps := episode(t, f.base, ctrl, pomdp.UniformBelief(3), trueState, stream, 10)
		if !rec {
			t.Fatalf("oracle failed to recover")
		}
		if steps != 1 {
			t.Errorf("oracle took %d actions, want exactly 1", steps)
		}
	}
}

func TestOracleErrors(t *testing.T) {
	f := newFixture(t)
	ctrl, err := NewOracle(f.base, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Decide(); !errors.Is(err, ErrNotReset) {
		t.Errorf("Decide before Reset: %v", err)
	}
	if err := ctrl.Reset(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Decide(); err == nil {
		t.Error("Decide without true state accepted")
	}
	ctrl.ObserveTrueState(0)
	d, err := ctrl.Decide()
	if err != nil || !d.Terminate {
		t.Errorf("oracle in null state: %+v, %v", d, err)
	}
	if b := ctrl.Belief(); b == nil || b[0] != 1 {
		t.Errorf("oracle belief = %v", b)
	}
	if _, err := NewOracle(f.base, []int{99}); err == nil {
		t.Error("out-of-range null state accepted")
	}
}

func TestOracleRejectsUnrecoverableModels(t *testing.T) {
	// A model where some fault needs two steps has no single-action oracle.
	b := pomdp.NewBuilder()
	b.Transition("null", "step", "null", 1)
	b.Transition("half", "step", "null", 1)
	b.Transition("bad", "step", "half", 1)
	b.Reward("half", "step", -1)
	b.Reward("bad", "step", -1)
	for _, s := range []string{"null", "half", "bad"} {
		b.Observe(s, "step", "o", 1)
	}
	model, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewOracle(model, []int{0}); err == nil {
		t.Error("two-step fault model accepted by oracle")
	}
}

// random --------------------------------------------------------------------

func TestRandomControllerTerminates(t *testing.T) {
	f := newFixture(t)
	ctrl, err := NewRandom(f.base, []int{0}, 0.99, rng.New(2).Split("ctrl"))
	if err != nil {
		t.Fatal(err)
	}
	root := rng.New(31)
	for ep := 0; ep < 10; ep++ {
		stream := root.SplitN("ep", ep)
		trueState := 1 + stream.IntN(2)
		episode(t, f.base, ctrl, pomdp.UniformBelief(3), trueState, stream, 2000)
	}
}

func TestNewRandomValidation(t *testing.T) {
	f := newFixture(t)
	if _, err := NewRandom(f.base, nil, 0.99, rng.New(1)); err == nil {
		t.Error("missing null states accepted")
	}
	if _, err := NewRandom(f.base, []int{0}, 0, rng.New(1)); err == nil {
		t.Error("zero termination probability accepted")
	}
	if _, err := NewRandom(f.base, []int{0}, 0.9, nil); err == nil {
		t.Error("nil stream accepted")
	}
}

func TestHeuristicLeafOverride(t *testing.T) {
	f := newFixture(t)
	// A zero leaf makes the depth-1 controller purely myopic.
	ctrl, err := NewHeuristic(f.base, HeuristicConfig{
		Depth:                  1,
		NullStates:             []int{0},
		TerminationProbability: 0.9999,
		Leaf:                   pomdp.ValueFunc(func(pomdp.Belief) float64 { return 0 }),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Reset(pomdp.UniformBelief(3)); err != nil {
		t.Fatal(err)
	}
	d, err := ctrl.Decide()
	if err != nil {
		t.Fatal(err)
	}
	// Assert the leaf is actually consulted by comparing root values at a
	// belief whose successors keep fault mass: the zero leaf roots at the
	// best immediate reward, the SRDS leaf roots strictly lower (it charges
	// the residual fault probability).
	srds, err := NewHeuristic(f.base, HeuristicConfig{
		Depth: 1, NullStates: []int{0}, TerminationProbability: 0.9999,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srds.Reset(pomdp.UniformBelief(3)); err != nil {
		t.Fatal(err)
	}
	d2, err := srds.Decide()
	if err != nil {
		t.Fatal(err)
	}
	if !(d.Value > d2.Value) {
		t.Errorf("zero-leaf root %v should exceed SRDS-leaf root %v", d.Value, d2.Value)
	}
}
