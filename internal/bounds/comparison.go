package bounds

import (
	"errors"
	"fmt"

	"bpomdp/internal/linalg"
	"bpomdp/internal/mdp"
	"bpomdp/internal/pomdp"
)

// BIPOMDP computes the BI-POMDP lower bound of Washington (1997): the MDP
// value function with min in place of max — the value of always choosing the
// worst action. The POMDP bound at belief π is Σ_s π(s)·V_BI(s).
//
// The paper shows this bound fails on undiscounted recovery models in both
// regimes, because the worst recovery action makes no progress while
// accruing cost; that divergence is reported as an error wrapping
// ErrUnbounded (and linalg.ErrNoConvergence).
func BIPOMDP(p *pomdp.POMDP, opts Options) (linalg.Vector, error) {
	o := opts.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	res, err := mdp.MinValueIteration(p.M, mdp.SolveOptions{
		Beta:         o.Beta,
		Tol:          o.Solver.Tol,
		MaxIter:      o.Solver.MaxIter,
		DivergeAbove: o.Solver.DivergeAbove,
	})
	if err != nil {
		if errors.Is(err, linalg.ErrNoConvergence) {
			return nil, fmt.Errorf("bounds: BI-POMDP: %w: %w", ErrUnbounded, err)
		}
		return nil, fmt.Errorf("bounds: BI-POMDP: %w", err)
	}
	return res.Values, nil
}

// BlindPolicyResult reports the outcome of the blind-policy bound
// computation: one hyperplane per action whose induced chain has a finite
// expected total reward, plus the list of actions whose blind value
// diverges to -∞ (those contribute nothing to the max and are omitted).
type BlindPolicyResult struct {
	// Planes[i] is the value vector of blindly following Actions[i] forever.
	Planes []linalg.Vector
	// Actions[i] is the action index of Planes[i].
	Actions []int
	// Diverged lists the actions whose blind value is -∞ in some state.
	Diverged []int
}

// BlindPolicy computes the blind-policy lower bound of Hauskrecht (1997):
// for each action a, the value V^ba(·, a) of choosing a in every state
// forever, each a valid lower-bound hyperplane; the POMDP bound is
// max_a Σ_s π(s)·V^ba(s, a).
//
// On undiscounted recovery models with recovery notification the paper notes
// this bound is infinite for most models, since no single action makes
// progress in every state; all such actions are reported in Diverged. If
// every action diverges the returned error wraps ErrUnbounded. On models
// without recovery notification, the terminate action a_T always yields a
// finite plane, so the bound is trivially finite — exactly the paper's
// observation.
func BlindPolicy(p *pomdp.POMDP, opts Options) (BlindPolicyResult, error) {
	o := opts.withDefaults()
	var out BlindPolicyResult
	if err := p.Validate(); err != nil {
		return out, err
	}
	for a := 0; a < p.NumActions(); a++ {
		chain, reward, err := p.M.ActionChain(a)
		if err != nil {
			return out, fmt.Errorf("bounds: blind policy action %d: %w", a, err)
		}
		v, _, err := linalg.SolveFixedPoint(chain, o.Beta, reward, o.Solver)
		if err != nil {
			if errors.Is(err, linalg.ErrNoConvergence) {
				out.Diverged = append(out.Diverged, a)
				continue
			}
			return out, fmt.Errorf("bounds: blind policy action %s: %w", p.M.ActionName(a), err)
		}
		out.Planes = append(out.Planes, v)
		out.Actions = append(out.Actions, a)
	}
	if len(out.Planes) == 0 {
		return out, fmt.Errorf("bounds: blind policy: every action diverges: %w", ErrUnbounded)
	}
	return out, nil
}

// QMDP computes the QMDP-style upper bound: the value function of the fully
// observable MDP. Since knowing the state can only help, V_p*(π) ≤
// Σ_s π(s)·V_MDP(s) for every belief. The paper's conclusion lists
// "generation of upper bounds in addition to the lower bounds to facilitate
// branch and bound techniques" as future work; this implements it. On
// undiscounted recovery models satisfying Condition 1 the optimal MDP policy
// reaches Sφ (or s_T), so the solve converges.
func QMDP(p *pomdp.POMDP, opts Options) (linalg.Vector, error) {
	o := opts.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	res, err := mdp.ValueIteration(p.M, mdp.SolveOptions{
		Beta:         o.Beta,
		Tol:          o.Solver.Tol,
		MaxIter:      o.Solver.MaxIter,
		DivergeAbove: o.Solver.DivergeAbove,
	})
	if err != nil {
		return nil, fmt.Errorf("bounds: QMDP: %w", err)
	}
	return res.Values, nil
}
