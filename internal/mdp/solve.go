package mdp

import (
	"fmt"
	"math"

	"bpomdp/internal/linalg"
)

// SolveOptions configures the MDP solvers.
type SolveOptions struct {
	// Beta is the discount factor in (0, 1]. Zero means 1 (the undiscounted
	// criterion the paper argues is the right one for recovery).
	Beta float64
	// Tol is the sup-norm convergence tolerance. Zero means 1e-9.
	Tol float64
	// MaxIter bounds the number of value-iteration sweeps. Zero means 100000.
	MaxIter int
	// DivergeAbove aborts with linalg.ErrNoConvergence when the value
	// iterate's sup-norm exceeds it. Zero means 1e12.
	DivergeAbove float64
}

func (o SolveOptions) withDefaults() SolveOptions {
	if o.Beta == 0 {
		o.Beta = 1
	}
	if o.Tol == 0 {
		o.Tol = 1e-9
	}
	if o.MaxIter == 0 {
		o.MaxIter = 100000
	}
	if o.DivergeAbove == 0 {
		o.DivergeAbove = 1e12
	}
	return o
}

// Result is the outcome of an MDP solve.
type Result struct {
	// Values[s] is the (approximate) value function at state s.
	Values linalg.Vector
	// Policy[s] is the greedy action at state s with respect to Values.
	Policy []int
	// Iterations is the number of sweeps performed.
	Iterations int
	// Residual is the final sup-norm change between iterates.
	Residual float64
}

// ValueIteration solves the dynamic-programming equation (Equation 1 of the
// paper) starting from v = 0:
//
//	V(s) = max_a [ r(s,a) + β Σ_s' p(s'|s,a) V(s') ]
//
// For β = 1 this is exact for negative models (all rewards ≤ 0) by Puterman
// Theorem 7.3.10, the result the paper's Theorem 3.1 leans on; models whose
// optimal value is -∞ in some state are reported as non-convergent.
func ValueIteration(m *MDP, opts SolveOptions) (Result, error) {
	return extremeValueIteration(m, opts, false)
}

// MinValueIteration solves the pessimal variant with min in place of max —
// the MDP core of the BI-POMDP bound of Washington (1997). On undiscounted
// recovery models this typically diverges (the worst action makes no
// progress while accruing cost), which is exactly the failure mode the paper
// demonstrates; divergence is reported via linalg.ErrNoConvergence.
func MinValueIteration(m *MDP, opts SolveOptions) (Result, error) {
	return extremeValueIteration(m, opts, true)
}

func extremeValueIteration(m *MDP, opts SolveOptions, minimize bool) (Result, error) {
	o := opts.withDefaults()
	if err := m.Validate(); err != nil {
		return Result{}, err
	}
	if o.Beta <= 0 || o.Beta > 1 {
		return Result{}, fmt.Errorf("mdp: discount beta=%v outside (0,1]", o.Beta)
	}
	n, na := m.NumStates(), m.NumActions()
	v := linalg.NewVector(n)
	next := linalg.NewVector(n)
	q := linalg.NewVector(n) // per-action backup scratch
	policy := make([]int, n)
	res := Result{}

	for it := 0; it < o.MaxIter; it++ {
		for s := range next {
			if minimize {
				next[s] = math.Inf(1)
			} else {
				next[s] = math.Inf(-1)
			}
		}
		for a := 0; a < na; a++ {
			m.Trans[a].MulVec(q, v)
			r := m.Reward[a]
			for s := 0; s < n; s++ {
				val := r[s] + o.Beta*q[s]
				if minimize {
					if val < next[s] {
						next[s], policy[s] = val, a
					}
				} else if val > next[s] {
					next[s], policy[s] = val, a
				}
			}
		}
		delta := next.InfNormDiff(v)
		copy(v, next)
		res.Iterations, res.Residual = it+1, delta
		if delta < o.Tol {
			res.Values = v
			res.Policy = policy
			return res, nil
		}
		if v.InfNorm() > o.DivergeAbove {
			return res, fmt.Errorf("mdp: value iterate norm %g exceeded %g after %d sweeps: %w",
				v.InfNorm(), o.DivergeAbove, it+1, linalg.ErrNoConvergence)
		}
	}
	return res, fmt.Errorf("mdp: residual %g > tol %g after %d sweeps: %w",
		res.Residual, o.Tol, o.MaxIter, linalg.ErrNoConvergence)
}
