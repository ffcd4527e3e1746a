// Package pomdp implements partially observable Markov decision processes:
// the model tuple (S, A, O, p, q, r) of Section 2 of the paper, belief
// states with Bayes updates (Equations 3–4), the belief-MDP dynamic-
// programming operator L_p (Equation 2), and the model transforms the paper
// uses to make undiscounted recovery models well-behaved (absorbing
// null-fault states for systems with recovery notification; the terminate
// action a_T and state s_T for systems without).
package pomdp

import (
	"errors"
	"fmt"
	"math"

	"bpomdp/internal/linalg"
	"bpomdp/internal/mdp"
)

// ErrInvalidModel is wrapped by all validation failures.
var ErrInvalidModel = errors.New("pomdp: invalid model")

// ErrImpossibleObservation is returned by belief updates when the given
// observation has probability zero under the current belief and action.
var ErrImpossibleObservation = errors.New("pomdp: observation has zero probability under belief")

const stochasticTol = 1e-9

// POMDP is a finite partially observable MDP. The underlying MDP supplies
// S, A, p and r; Obs supplies the observation function q.
type POMDP struct {
	// M is the underlying (fully observable) MDP.
	M *mdp.MDP
	// Obs[a] is the |S|×|O| observation matrix for action a:
	// Obs[a].At(s, o) = q(o|s, a), the probability of observing o when the
	// system transitions INTO state s as a result of action a.
	Obs []*linalg.CSR
	// ObsNames are optional labels for observations.
	ObsNames []string
}

// NumStates returns |S|.
func (p *POMDP) NumStates() int { return p.M.NumStates() }

// NumActions returns |A|.
func (p *POMDP) NumActions() int { return p.M.NumActions() }

// NumObservations returns |O|.
func (p *POMDP) NumObservations() int {
	if len(p.Obs) == 0 {
		return 0
	}
	return p.Obs[0].Cols()
}

// ObsName returns the label of observation o, falling back to "o<idx>".
func (p *POMDP) ObsName(o int) string {
	if o >= 0 && o < len(p.ObsNames) && p.ObsNames[o] != "" {
		return p.ObsNames[o]
	}
	return fmt.Sprintf("o%d", o)
}

// Validate checks that the underlying MDP is valid and that the observation
// matrices have the right shape with stochastic rows: for every action a and
// state s, Σ_o q(o|s,a) = 1 and all q ≥ 0.
func (p *POMDP) Validate() error {
	if p.M == nil {
		return fmt.Errorf("%w: nil MDP", ErrInvalidModel)
	}
	if err := p.M.Validate(); err != nil {
		return err
	}
	if len(p.Obs) != p.M.NumActions() {
		return fmt.Errorf("%w: %d observation matrices for %d actions",
			ErrInvalidModel, len(p.Obs), p.M.NumActions())
	}
	n := p.M.NumStates()
	no := p.NumObservations()
	if no == 0 {
		return fmt.Errorf("%w: no observations", ErrInvalidModel)
	}
	for a, om := range p.Obs {
		if om.Rows() != n || om.Cols() != no {
			return fmt.Errorf("%w: action %s observation matrix is %dx%d, want %dx%d",
				ErrInvalidModel, p.M.ActionName(a), om.Rows(), om.Cols(), n, no)
		}
		for s := 0; s < n; s++ {
			if sum := om.RowSum(s); math.Abs(sum-1) > stochasticTol {
				return fmt.Errorf("%w: action %s state %s observation row sums to %v, want 1",
					ErrInvalidModel, p.M.ActionName(a), p.M.StateName(s), sum)
			}
		}
		neg := false
		for s := 0; s < n; s++ {
			om.Row(s, func(_ int, v float64) {
				if v < 0 {
					neg = true
				}
			})
		}
		if neg {
			return fmt.Errorf("%w: action %s has negative observation probability",
				ErrInvalidModel, p.M.ActionName(a))
		}
	}
	if len(p.ObsNames) != 0 && len(p.ObsNames) != no {
		return fmt.Errorf("%w: %d observation names for %d observations",
			ErrInvalidModel, len(p.ObsNames), no)
	}
	return nil
}

// Scratch holds preallocated buffers for the belief operations, so the hot
// decision loop of the controller performs no per-step allocations beyond
// the successor beliefs it must return. A Scratch may be reused across calls
// but not concurrently.
type Scratch struct {
	pred  linalg.Vector // Σ_s' p(s|s',a) π(s'): forward-pushed belief
	gamma linalg.Vector // per-observation probability
}

// NewScratch returns a Scratch sized for model p.
func NewScratch(p *POMDP) *Scratch {
	return &Scratch{
		pred:  linalg.NewVector(p.NumStates()),
		gamma: linalg.NewVector(p.NumObservations()),
	}
}
