// Package mdp implements finite Markov decision processes and their
// solution: value iteration for discounted and undiscounted (negative-model)
// optimality criteria, greedy policy extraction, and the derived Markov
// chains (uniform random action, fixed action) that the paper's POMDP bounds
// are built from.
//
// An MDP is the tuple (S, A, p(·|s,a), r(s,a)) of Section 2 of the paper.
// States and actions are dense integer indices; names are carried alongside
// purely for diagnostics.
package mdp

import (
	"errors"
	"fmt"
	"math"

	"bpomdp/internal/linalg"
)

// ErrInvalidModel is wrapped by all validation failures.
var ErrInvalidModel = errors.New("mdp: invalid model")

// stochasticTol is the tolerance used when checking that transition rows
// sum to one.
const stochasticTol = 1e-9

// MDP is a finite Markov decision process. Build one with a Builder (or
// populate the fields directly and call Validate). After Validate succeeds
// the model must be treated as immutable.
type MDP struct {
	// Trans[a] is the |S|×|S| transition-probability matrix for action a:
	// Trans[a].At(s, s') = p(s'|s, a).
	Trans []*linalg.CSR
	// Reward[a][s] = r(s, a), the single-step reward for choosing action a
	// in state s.
	Reward []linalg.Vector
	// StateNames and ActionNames are optional human-readable labels used in
	// diagnostics; when present their lengths must match |S| and |A|.
	StateNames  []string
	ActionNames []string
}

// NumStates returns |S|.
func (m *MDP) NumStates() int {
	if len(m.Trans) == 0 {
		return 0
	}
	return m.Trans[0].Rows()
}

// NumActions returns |A|.
func (m *MDP) NumActions() int { return len(m.Trans) }

// StateName returns the label of state s, falling back to "s<idx>".
func (m *MDP) StateName(s int) string {
	if s >= 0 && s < len(m.StateNames) && m.StateNames[s] != "" {
		return m.StateNames[s]
	}
	return fmt.Sprintf("s%d", s)
}

// ActionName returns the label of action a, falling back to "a<idx>".
func (m *MDP) ActionName(a int) string {
	if a >= 0 && a < len(m.ActionNames) && m.ActionNames[a] != "" {
		return m.ActionNames[a]
	}
	return fmt.Sprintf("a%d", a)
}

// Validate checks structural well-formedness: at least one action, square
// matching-shape transition matrices with stochastic rows, reward vectors of
// length |S|, and name slices (when present) of matching length.
func (m *MDP) Validate() error {
	if len(m.Trans) == 0 {
		return fmt.Errorf("%w: no actions", ErrInvalidModel)
	}
	if len(m.Reward) != len(m.Trans) {
		return fmt.Errorf("%w: %d reward vectors for %d actions", ErrInvalidModel, len(m.Reward), len(m.Trans))
	}
	n := m.Trans[0].Rows()
	for a, tr := range m.Trans {
		if tr.Rows() != n || tr.Cols() != n {
			return fmt.Errorf("%w: action %s transition matrix is %dx%d, want %dx%d",
				ErrInvalidModel, m.ActionName(a), tr.Rows(), tr.Cols(), n, n)
		}
		for s := 0; s < n; s++ {
			if sum := tr.RowSum(s); math.Abs(sum-1) > stochasticTol {
				return fmt.Errorf("%w: action %s row %s sums to %v, want 1",
					ErrInvalidModel, m.ActionName(a), m.StateName(s), sum)
			}
		}
		neg := false
		for s := 0; s < n; s++ {
			tr.Row(s, func(_ int, v float64) {
				if v < 0 {
					neg = true
				}
			})
		}
		if neg {
			return fmt.Errorf("%w: action %s has negative transition probability", ErrInvalidModel, m.ActionName(a))
		}
		if len(m.Reward[a]) != n {
			return fmt.Errorf("%w: action %s reward vector length %d, want %d",
				ErrInvalidModel, m.ActionName(a), len(m.Reward[a]), n)
		}
		if !m.Reward[a].IsFinite() {
			return fmt.Errorf("%w: action %s has non-finite reward", ErrInvalidModel, m.ActionName(a))
		}
	}
	if len(m.StateNames) != 0 && len(m.StateNames) != n {
		return fmt.Errorf("%w: %d state names for %d states", ErrInvalidModel, len(m.StateNames), n)
	}
	if len(m.ActionNames) != 0 && len(m.ActionNames) != len(m.Trans) {
		return fmt.Errorf("%w: %d action names for %d actions", ErrInvalidModel, len(m.ActionNames), len(m.Trans))
	}
	return nil
}

// AllRewardsNonPositive reports whether every single-step reward satisfies
// r(s,a) <= 0 — Condition 2 of the paper, which makes the induced
// belief-state MDP a negative model with values upper-bounded by zero.
func (m *MDP) AllRewardsNonPositive() bool {
	for _, r := range m.Reward {
		for _, x := range r {
			if x > 0 {
				return false
			}
		}
	}
	return true
}

// UniformChain collapses the MDP into the Markov chain obtained by choosing
// an action uniformly at random in every state, together with its reward
// vector — the construction underlying the RA-Bound (Equation 5):
//
//	P_ra(s'|s) = (1/|A|) Σ_a p(s'|s,a),  r_ra(s) = (1/|A|) Σ_a r(s,a).
func (m *MDP) UniformChain() (*linalg.CSR, linalg.Vector, error) {
	n, na := m.NumStates(), m.NumActions()
	if na == 0 {
		return nil, nil, fmt.Errorf("%w: no actions", ErrInvalidModel)
	}
	inv := 1 / float64(na)
	b := linalg.NewBuilder(n, n)
	r := linalg.NewVector(n)
	for a := 0; a < na; a++ {
		for s := 0; s < n; s++ {
			m.Trans[a].Row(s, func(c int, v float64) {
				b.Add(s, c, v*inv)
			})
		}
		r.AddScaled(inv, m.Reward[a])
	}
	p, err := b.Build()
	if err != nil {
		return nil, nil, fmt.Errorf("mdp: uniform chain: %w", err)
	}
	return p, r, nil
}

// ActionChain returns the Markov chain induced by blindly following action a
// in every state, with its reward vector — the basis of the blind-policy
// bound of Hauskrecht (1997).
func (m *MDP) ActionChain(a int) (*linalg.CSR, linalg.Vector, error) {
	if a < 0 || a >= m.NumActions() {
		return nil, nil, fmt.Errorf("mdp: action %d out of range [0,%d)", a, m.NumActions())
	}
	return m.Trans[a], m.Reward[a].Clone(), nil
}

// CanReach reports, for every state, whether some sequence of actions can
// reach the target set with positive probability — the reachability half of
// the paper's Condition 1. It runs a reverse breadth-first search over the
// union of all action transition graphs.
func (m *MDP) CanReach(targets []int) []bool {
	n := m.NumStates()
	reach := make([]bool, n)
	queue := make([]int, 0, n)
	for _, t := range targets {
		if t >= 0 && t < n && !reach[t] {
			reach[t] = true
			queue = append(queue, t)
		}
	}
	// Predecessor adjacency over the action-union graph.
	preds := make([][]int32, n)
	for a := 0; a < m.NumActions(); a++ {
		for s := 0; s < n; s++ {
			m.Trans[a].Row(s, func(c int, v float64) {
				if v > 0 && c != s {
					preds[c] = append(preds[c], int32(s))
				}
			})
		}
	}
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		for _, p := range preds[t] {
			if !reach[p] {
				reach[p] = true
				queue = append(queue, int(p))
			}
		}
	}
	return reach
}
