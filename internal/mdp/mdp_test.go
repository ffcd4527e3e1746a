package mdp

import (
	"errors"
	"testing"

	"bpomdp/internal/linalg"
)

// twoState builds the canonical test MDP:
//
//	state bad(0):  fix  -> good w.p. 1, r = -1
//	               wait -> bad  w.p. 1, r = -2
//	state good(1): fix/wait self-loop, r = 0
func twoState(t *testing.T) *MDP {
	t.Helper()
	b := NewBuilder()
	b.Transition("bad", "fix", "good", 1)
	b.Transition("bad", "wait", "bad", 1)
	b.Transition("good", "fix", "good", 1)
	b.Transition("good", "wait", "good", 1)
	b.Reward("bad", "fix", -1)
	b.Reward("bad", "wait", -2)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuilderInterning(t *testing.T) {
	b := NewBuilder()
	s1 := b.State("x")
	s2 := b.State("x")
	if s1 != s2 {
		t.Errorf("State(\"x\") interned twice: %d, %d", s1, s2)
	}
	a1 := b.Action("go")
	a2 := b.Action("go")
	if a1 != a2 {
		t.Errorf("Action(\"go\") interned twice: %d, %d", a1, a2)
	}
	if !b.HasState("x") || b.HasState("y") {
		t.Error("HasState wrong")
	}
	if b.NumStates() != 1 || b.NumActions() != 1 {
		t.Errorf("counts = %d states, %d actions", b.NumStates(), b.NumActions())
	}
}

func TestBuilderRejectsMissingRow(t *testing.T) {
	b := NewBuilder()
	b.Transition("a", "go", "b", 1)
	// state "b" has no transitions under "go".
	if _, err := b.Build(); err == nil {
		t.Error("missing transition row accepted")
	}
}

func TestBuilderRejectsNegativeProb(t *testing.T) {
	b := NewBuilder()
	b.Transition("a", "go", "a", -0.5)
	b.Transition("a", "go", "a", 1.5)
	if _, err := b.Build(); err == nil {
		t.Error("negative probability accepted")
	}
}

func TestBuilderRejectsEmpty(t *testing.T) {
	if _, err := NewBuilder().Build(); err == nil {
		t.Error("empty builder accepted")
	}
}

func TestValidateNonStochastic(t *testing.T) {
	m := twoState(t)
	// Corrupt: replace a transition matrix with a non-stochastic one.
	bad, err := linalg.NewCSR(2, 2, []linalg.Entry{{Row: 0, Col: 0, Val: 0.5}, {Row: 1, Col: 1, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	m.Trans[0] = bad
	if err := m.Validate(); !errors.Is(err, ErrInvalidModel) {
		t.Errorf("Validate = %v, want ErrInvalidModel", err)
	}
}

func TestValidateShapeErrors(t *testing.T) {
	m := twoState(t)
	m.Reward[0] = linalg.Vector{0}
	if err := m.Validate(); !errors.Is(err, ErrInvalidModel) {
		t.Errorf("short reward: %v", err)
	}

	m2 := twoState(t)
	m2.StateNames = []string{"only-one"}
	if err := m2.Validate(); !errors.Is(err, ErrInvalidModel) {
		t.Errorf("bad state names: %v", err)
	}

	m3 := &MDP{}
	if err := m3.Validate(); !errors.Is(err, ErrInvalidModel) {
		t.Errorf("empty model: %v", err)
	}
}

func TestNames(t *testing.T) {
	m := twoState(t)
	if m.StateName(0) != "bad" || m.ActionName(0) != "fix" {
		t.Errorf("names: %q %q", m.StateName(0), m.ActionName(0))
	}
	if m.StateName(99) != "s99" || m.ActionName(99) != "a99" {
		t.Errorf("fallback names: %q %q", m.StateName(99), m.ActionName(99))
	}
}

func TestAllRewardsNonPositive(t *testing.T) {
	m := twoState(t)
	if !m.AllRewardsNonPositive() {
		t.Error("non-positive rewards reported positive")
	}
	m.Reward[0][1] = 0.5
	if m.AllRewardsNonPositive() {
		t.Error("positive reward not detected")
	}
}

func TestValueIterationUndiscounted(t *testing.T) {
	m := twoState(t)
	res, err := ValueIteration(m, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.Values[0], -1, 1e-8) || !almostEqual(res.Values[1], 0, 1e-8) {
		t.Errorf("V = %v, want [-1 0]", res.Values)
	}
	if res.Policy[0] != 0 { // fix
		t.Errorf("policy[bad] = %s, want fix", m.ActionName(res.Policy[0]))
	}
}

func TestValueIterationDiscounted(t *testing.T) {
	m := twoState(t)
	beta := 0.5
	res, err := ValueIteration(m, SolveOptions{Beta: beta})
	if err != nil {
		t.Fatal(err)
	}
	// fix: -1 + 0.5*0 = -1; wait: -2 + 0.5*V(bad). V(bad) = max(-1, ...) = -1.
	if !almostEqual(res.Values[0], -1, 1e-8) {
		t.Errorf("V(bad) = %v, want -1", res.Values[0])
	}
}

func TestValueIterationRejectsBadBeta(t *testing.T) {
	m := twoState(t)
	if _, err := ValueIteration(m, SolveOptions{Beta: 1.5}); err == nil {
		t.Error("beta=1.5 accepted")
	}
	if _, err := ValueIteration(m, SolveOptions{Beta: -1}); err == nil {
		t.Error("beta=-1 accepted")
	}
}

func TestMinValueIterationDivergesUndiscounted(t *testing.T) {
	// The worst action ("wait", cost -2 forever) never recovers, so the
	// pessimal value is -inf — the BI-POMDP failure the paper describes.
	m := twoState(t)
	_, err := MinValueIteration(m, SolveOptions{MaxIter: 20000})
	if !errors.Is(err, linalg.ErrNoConvergence) {
		t.Errorf("err = %v, want ErrNoConvergence", err)
	}
}

func TestMinValueIterationConvergesDiscounted(t *testing.T) {
	m := twoState(t)
	beta := 0.9
	res, err := MinValueIteration(m, SolveOptions{Beta: beta, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	want := -2 / (1 - beta)
	if !almostEqual(res.Values[0], want, 1e-6) {
		t.Errorf("min V(bad) = %v, want %v", res.Values[0], want)
	}
}

func TestUniformChain(t *testing.T) {
	m := twoState(t)
	p, r, err := m.UniformChain()
	if err != nil {
		t.Fatal(err)
	}
	// From bad: fix (0.5 -> good), wait (0.5 -> bad); avg reward -1.5.
	if !almostEqual(p.At(0, 1), 0.5, 1e-12) || !almostEqual(p.At(0, 0), 0.5, 1e-12) {
		t.Errorf("uniform chain row 0 = [%v %v]", p.At(0, 0), p.At(0, 1))
	}
	if !almostEqual(r[0], -1.5, 1e-12) {
		t.Errorf("uniform reward(bad) = %v, want -1.5", r[0])
	}
	for s := range p.Rows() {
		if sum := p.RowSum(s); !almostEqual(sum, 1, 1e-9) {
			t.Errorf("row %d sums to %v", s, sum)
		}
	}
}

func TestActionAndPolicyChains(t *testing.T) {
	m := twoState(t)
	p, r, err := m.ActionChain(1) // wait
	if err != nil {
		t.Fatal(err)
	}
	if p.At(0, 0) != 1 || r[0] != -2 {
		t.Errorf("wait chain: p=%v r=%v", p.At(0, 0), r[0])
	}
	if _, _, err := m.ActionChain(5); err == nil {
		t.Error("out-of-range action accepted")
	}

}

func TestCanReach(t *testing.T) {
	// Three states: 0 -> 1 -> 2 (absorbing), and an isolated trap 3.
	b := NewBuilder()
	b.Transition("s0", "go", "s1", 1)
	b.Transition("s1", "go", "s2", 1)
	b.Transition("s2", "go", "s2", 1)
	b.Transition("trap", "go", "trap", 1)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	reach := m.CanReach([]int{2})
	want := []bool{true, true, true, false}
	for i := range want {
		if reach[i] != want[i] {
			t.Errorf("reach[%d] = %v, want %v", i, reach[i], want[i])
		}
	}
	// Out-of-range targets are ignored.
	if got := m.CanReach([]int{-1, 99}); got[0] || got[1] || got[2] || got[3] {
		t.Errorf("bogus targets reached: %v", got)
	}
}

func almostEqual(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}
