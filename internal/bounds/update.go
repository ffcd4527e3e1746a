package bounds

import (
	"fmt"

	"bpomdp/internal/linalg"
	"bpomdp/internal/pomdp"
)

// Updater implements the incremental linear-function bound-improvement
// method of Hauskrecht (2000) as used in Section 4.1 (Equation 7): given a
// set B of lower-bound hyperplanes and a belief π, it constructs a new
// hyperplane
//
//	b_a(s) = r(s,a) + β Σ_o Σ_s' p(s',o|s,a) · b^{π,a,o}(s')
//	b      = argmax_{b_a} Σ_s b_a(s)·π(s)
//
// where b^{π,a,o} is the existing hyperplane that is maximal for the
// (unnormalized) successor belief of (π, a, o). Every such plane is itself a
// valid lower bound, so adding it to B preserves validity while (weakly)
// improving the bound at π.
type Updater struct {
	p    *pomdp.POMDP
	beta float64
	set  *Set

	pred  linalg.Vector   // Σ_s p(s'|s,a)·π(s)
	g     linalg.Vector   // Σ_o q(o|s',a)·b_{a,o}(s')
	cand  linalg.Vector   // candidate plane b_a
	best  linalg.Vector   // best candidate so far
	sel   []int           // chosen plane index per observation
	score []linalg.Vector // score[i][o] = Σ_s' pred(s')·q(o|s',a)·plane_i(s')
}

// NewUpdater creates an Updater that improves set in place on model p.
func NewUpdater(p *pomdp.POMDP, set *Set, opts Options) (*Updater, error) {
	o := opts.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if set.NumStates() != p.NumStates() {
		return nil, fmt.Errorf("bounds: set over %d states, model has %d", set.NumStates(), p.NumStates())
	}
	if set.Size() == 0 {
		return nil, ErrEmptySet
	}
	if o.Beta <= 0 || o.Beta > 1 {
		return nil, fmt.Errorf("bounds: beta %v outside (0,1]", o.Beta)
	}
	n, no := p.NumStates(), p.NumObservations()
	return &Updater{
		p:    p,
		beta: o.Beta,
		set:  set,
		pred: linalg.NewVector(n),
		g:    linalg.NewVector(n),
		cand: linalg.NewVector(n),
		best: linalg.NewVector(n),
		sel:  make([]int, no),
	}, nil
}

// Set returns the hyperplane set being improved.
func (u *Updater) Set() *Set { return u.set }

// UpdateResult describes one incremental update step.
type UpdateResult struct {
	// Before and After are V_B⁻(π) before and after the update.
	Before, After float64
	// Added reports whether the new hyperplane was kept (it is discarded
	// when pointwise dominated by an existing plane).
	Added bool
	// Action is the maximizing action of the backed-up plane.
	Action int
}

// UpdateAt performs one incremental bound update at belief π, adding the
// backed-up hyperplane to the set if it is not dominated, and returns the
// before/after bound values at π.
func (u *Updater) UpdateAt(pi pomdp.Belief) (UpdateResult, error) {
	p := u.p
	n := p.NumStates()
	if len(pi) != n {
		return UpdateResult{}, fmt.Errorf("bounds: belief length %d, want %d", len(pi), n)
	}
	before, _ := u.set.ValueArg(pi)

	bestVal := 0.0
	bestAction := -1
	for a := 0; a < p.NumActions(); a++ {
		u.backupAction(pi, a)
		if v := linalg.Vector(pi).Dot(u.cand); bestAction < 0 || v > bestVal {
			bestVal = v
			bestAction = a
			copy(u.best, u.cand)
		}
	}

	added, err := u.set.Add(u.best)
	if err != nil {
		return UpdateResult{}, err
	}
	after, _ := u.set.ValueArg(pi)
	return UpdateResult{Before: before, After: after, Added: added, Action: bestAction}, nil
}

// backupAction computes the backed-up hyperplane for action a into u.cand.
func (u *Updater) backupAction(pi pomdp.Belief, a int) {
	p := u.p
	n, no := p.NumStates(), p.NumObservations()

	// pred(s') = Σ_s p(s'|s,a)·π(s).
	p.Predict(u.pred, pi, a)

	// Grow the per-plane score matrix lazily (the set grows over time).
	for len(u.score) < u.set.Size() {
		u.score = append(u.score, linalg.NewVector(no))
	}
	// score[i][o] = Σ_s' pred(s')·q(o|s',a)·plane_i(s').
	for i := 0; i < u.set.Size(); i++ {
		u.score[i].Fill(0)
	}
	for s := 0; s < n; s++ {
		ps := u.pred[s]
		if ps == 0 {
			continue
		}
		p.Obs[a].Row(s, func(o int, q float64) {
			w := ps * q
			if w == 0 {
				return
			}
			for i := 0; i < u.set.Size(); i++ {
				u.score[i][o] += w * u.set.at(i, s)
			}
		})
	}
	// b^{π,a,o} = argmax_i score[i][o]. For observations unreachable from π
	// the choice does not affect the value at π and any plane in B keeps the
	// result a valid bound; we use the base plane (index 0).
	for o := 0; o < no; o++ {
		u.sel[o] = 0
		best := u.score[0][o]
		for i := 1; i < u.set.Size(); i++ {
			if u.score[i][o] > best {
				best = u.score[i][o]
				u.sel[o] = i
			}
		}
	}
	// g(s') = Σ_o q(o|s',a)·b_{a,o}(s').
	u.g.Fill(0)
	for s := 0; s < n; s++ {
		p.Obs[a].Row(s, func(o int, q float64) {
			u.g[s] += q * u.set.at(u.sel[o], s)
		})
	}
	// b_a = r(a) + β·P(a)·g.
	p.M.Trans[a].MulVec(u.cand, u.g)
	u.cand.Scale(u.beta)
	u.cand.AddScaled(1, p.M.Reward[a])
}
