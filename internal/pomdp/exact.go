package pomdp

import (
	"fmt"
	"math"

	"bpomdp/internal/linalg"
)

// ErrTooManyVectors is returned when the exact solver's vector set exceeds
// the caller's budget — the expected outcome on all but small models, since
// exact POMDP solution is intractable in general (and undecidable to
// certify in the infinite-horizon undiscounted case, per the Madani et al.
// result the paper cites).
var ErrTooManyVectors = fmt.Errorf("pomdp: exact solver exceeded the vector budget")

// ExactFiniteHorizon computes the exact k-horizon value function of the
// POMDP as a set of α-vectors (hyperplanes over the belief simplex), via
// Monahan-style exhaustive cross-sum dynamic programming with pointwise-
// dominance pruning:
//
//	Γ_0     = {0}
//	Γ_{t+1} = prune( ⋃_a { r(a) + β Σ_o backproject_{a,o}(α_o) } )
//
// where backproject_{a,o}(α)(s) = Σ_s' p(s'|s,a)·q(o|s',a)·α(s') and the
// union ranges over every |O|-tuple of vectors from Γ_t. The k-horizon
// value at belief π is max_α π·α.
//
// The cross-sum is exponential in |O|; maxVectors (0 means 100000) guards
// against blow-up with ErrTooManyVectors. Intended for ground-truth
// verification of bounds and tree expansions on small models, exactly the
// role exact solvers play in the paper's related work.
func ExactFiniteHorizon(p *POMDP, beta float64, horizon, maxVectors int) ([]linalg.Vector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if beta <= 0 || beta > 1 {
		return nil, fmt.Errorf("pomdp: beta %v outside (0,1]", beta)
	}
	if horizon < 0 {
		return nil, fmt.Errorf("pomdp: negative horizon %d", horizon)
	}
	if maxVectors == 0 {
		maxVectors = 100000
	}
	n, na, no := p.NumStates(), p.NumActions(), p.NumObservations()

	gamma := []linalg.Vector{linalg.NewVector(n)} // Γ_0 = {0}
	for t := 0; t < horizon; t++ {
		var next []linalg.Vector
		for a := 0; a < na; a++ {
			// Back-project every vector through every observation channel.
			proj := make([][]linalg.Vector, no)
			for o := 0; o < no; o++ {
				proj[o] = make([]linalg.Vector, len(gamma))
				for i, alpha := range gamma {
					proj[o][i] = backproject(p, a, o, alpha)
				}
			}
			// Cross-sum over observations, pruning dominated partial sums
			// to keep the frontier small.
			partial := []linalg.Vector{p.M.Reward[a].Clone()}
			for o := 0; o < no; o++ {
				grown := make([]linalg.Vector, 0, len(partial)*len(proj[o]))
				for _, base := range partial {
					for _, pr := range proj[o] {
						v := base.Clone().AddScaled(beta, pr)
						grown = append(grown, v)
					}
				}
				partial = pruneDominated(grown)
				if len(partial) > maxVectors {
					return nil, fmt.Errorf("pomdp: horizon %d action %d: %d vectors: %w",
						t+1, a, len(partial), ErrTooManyVectors)
				}
			}
			next = append(next, partial...)
		}
		gamma = pruneDominated(next)
		if len(gamma) > maxVectors {
			return nil, fmt.Errorf("pomdp: horizon %d: %d vectors: %w", t+1, len(gamma), ErrTooManyVectors)
		}
	}
	return gamma, nil
}

// backproject computes g(s) = Σ_s' p(s'|s,a)·q(o|s',a)·α(s').
func backproject(p *POMDP, a, o int, alpha linalg.Vector) linalg.Vector {
	n := p.NumStates()
	// weighted(s') = q(o|s',a)·α(s'), then g = P(a)·weighted.
	weighted := linalg.NewVector(n)
	for s := 0; s < n; s++ {
		if q := p.Obs[a].At(s, o); q != 0 {
			weighted[s] = q * alpha[s]
		}
	}
	return p.M.Trans[a].MulVec(linalg.NewVector(n), weighted)
}

// pruneDominated removes vectors pointwise-dominated by another (a sound
// but incomplete reduction: some kept vectors may still be useless at every
// belief, but no useful vector is ever dropped, so the max is unchanged).
func pruneDominated(vs []linalg.Vector) []linalg.Vector {
	const tol = 1e-12
	out := make([]linalg.Vector, 0, len(vs))
	for i, v := range vs {
		dominated := false
		for j, w := range vs {
			if i == j {
				continue
			}
			if pointwiseGE(w, v, tol) && (j < i || !pointwiseGE(v, w, tol)) {
				// w ≥ v everywhere; break exact ties by keeping the earlier
				// vector only.
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, v)
		}
	}
	return out
}

func pointwiseGE(a, b linalg.Vector, tol float64) bool {
	for i := range a {
		if a[i] < b[i]-tol {
			return false
		}
	}
	return true
}

// ValueOfVectorSet evaluates max_α π·α over a vector set, -Inf for empty.
func ValueOfVectorSet(vs []linalg.Vector, pi Belief) float64 {
	best := math.Inf(-1)
	x := linalg.Vector(pi)
	for _, v := range vs {
		if val := x.Dot(v); val > best {
			best = val
		}
	}
	return best
}
