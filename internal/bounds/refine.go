package bounds

import (
	"errors"
	"fmt"
	"math"
	"time"

	"bpomdp/internal/linalg"
	"bpomdp/internal/pomdp"
)

// ErrBoundCrossing is wrapped by the refiner whenever the upper bound falls
// below the lower bound at a visited belief. Valid bound pairs can never
// cross — both backup operators preserve validity — so a crossing certifies
// corrupt input (a stale corner vector, a hand-edited bound file, a plane set
// from a different model) and the refiner refuses to emit the inverted pair.
var ErrBoundCrossing = errors.New("bounds: upper bound fell below lower bound")

// pointTol is the minimum improvement a sawtooth point must deliver at its
// own belief to be stored; matches the dominance tolerance of Set.Add.
const pointTol = 1e-12

// UpperBound is a sawtooth (point-set) upper bound on the POMDP value
// function, the dual of the hyperplane Set: a corner vector U₀ (a valid
// per-state upper bound, e.g. the QMDP vector or the trivial zero bound of
// Condition 2) plus a set of belief points with known upper-bound values.
// The bound at a belief is the sawtooth interpolation
//
//	V̄(π) = min( U₀·π, min_i U₀·π + μ_i·(v_i − U₀·c_i) ),
//	μ_i  = min_{s : c_i(s)>0} π(s)/c_i(s)
//
// which is valid by convexity of the optimal value function. Like Set, the
// points are stored structure-of-arrays style in one contiguous slab so
// Value streams it linearly.
//
// An UpperBound is not safe for concurrent mutation, but Value is safe from
// several goroutines on a bound nobody is mutating.
type UpperBound struct {
	corner   linalg.Vector
	pts      []float64 // point i is pts[i*n : (i+1)*n]
	vals     []float64 // vals[i] is the stored value at point i
	cornerAt []float64 // cornerAt[i] = U₀·c_i, precomputed at insertion
	n        int
}

// NewUpperBound creates a point-set upper bound anchored to the given corner
// vector (the per-state values U₀, which must themselves be a valid upper
// bound — QMDP or TrivialUpper).
func NewUpperBound(corner linalg.Vector) (*UpperBound, error) {
	if len(corner) == 0 {
		return nil, fmt.Errorf("bounds: empty upper-bound corner vector")
	}
	if !corner.IsFinite() {
		return nil, fmt.Errorf("bounds: upper-bound corner vector is not finite")
	}
	return &UpperBound{
		corner: append(linalg.Vector(nil), corner...),
		n:      len(corner),
	}, nil
}

// NumStates returns the dimension of the underlying belief space.
func (u *UpperBound) NumStates() int { return u.n }

// NumPoints returns the number of stored interior points.
func (u *UpperBound) NumPoints() int { return len(u.vals) }

// Corner returns (a copy of) the corner vector U₀.
func (u *UpperBound) Corner() linalg.Vector {
	return append(linalg.Vector(nil), u.corner...)
}

// Value evaluates the sawtooth upper bound at a belief. It panics on
// dimension mismatch (beliefs are validated upstream), mirroring Set.Value.
func (u *UpperBound) Value(pi pomdp.Belief) float64 {
	base := linalg.DotUnrolled(pi, u.corner)
	best := base
	for i := range u.vals {
		drop := u.vals[i] - u.cornerAt[i]
		if drop >= 0 {
			continue // the point does not improve on the corner plane
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
			continue // π has no mass on some support state of c_i
		}
		if v := base + mu*drop; v < best {
			best = v
		}
	}
	return best
}

// AddPoint records that the value at belief π is at most v. A point that
// does not improve the current bound at π is discarded; a point at a belief
// bit-identical to a stored one lowers the stored value in place. Since
// stored values only ever decrease and points are only added, the bound is
// pointwise nonincreasing over the life of the set — the monotonicity the
// refiner's gap guarantee rests on. It reports whether the bound changed.
func (u *UpperBound) AddPoint(pi pomdp.Belief, v float64) (bool, error) {
	if len(pi) != u.n {
		return false, fmt.Errorf("bounds: point belief length %d, want %d", len(pi), u.n)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return false, fmt.Errorf("bounds: non-finite point value %v", v)
	}
	for i := range u.vals {
		if pomdp.SameBits(u.pts[i*u.n:(i+1)*u.n], pi) {
			if v < u.vals[i] {
				u.vals[i] = v
				return true, nil
			}
			return false, nil
		}
	}
	if v >= u.Value(pi)-pointTol {
		return false, nil
	}
	u.pts = append(u.pts, pi...)
	u.vals = append(u.vals, v)
	u.cornerAt = append(u.cornerAt, linalg.DotUnrolled(pi, u.corner))
	return true, nil
}

// The upper bound is usable directly as a leaf evaluator.
var _ pomdp.ValueFn = (*UpperBound)(nil)

// RefineConfig configures the HSVI-style bound refiner.
type RefineConfig struct {
	// Beta is the discount factor in (0, 1]; zero means 1 (undiscounted).
	Beta float64
	// Epsilon is the target root bound gap V̄(π₀) − V_B⁻(π₀) at which
	// refinement declares convergence; zero means 1e-6.
	Epsilon float64
	// MaxTrials bounds the number of forward-exploration trials; zero means
	// 256.
	MaxTrials int
	// MaxDepth caps each trial's exploration depth. Undiscounted recovery
	// models have no contraction to shrink the relevant horizon, so the cap
	// is load-bearing, not cosmetic; zero means 64.
	MaxDepth int
	// CrossTol is the numerical slack allowed before a negative gap is
	// reported as ErrBoundCrossing; zero means 1e-6.
	CrossTol float64
}

func (c RefineConfig) withDefaults() RefineConfig {
	if c.Beta == 0 {
		c.Beta = 1
	}
	if c.Epsilon == 0 {
		c.Epsilon = 1e-6
	}
	if c.MaxTrials == 0 {
		c.MaxTrials = 256
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 64
	}
	if c.CrossTol == 0 {
		c.CrossTol = 1e-6
	}
	return c
}

// RefineReport summarizes one Run of the refiner.
type RefineReport struct {
	// InitialGap and FinalGap are the root bound gap before and after.
	InitialGap, FinalGap float64
	// Trials is the number of exploration trials performed.
	Trials int
	// Backups counts dual (lower+upper) point backups performed.
	Backups int
	// PointsAdded counts upper-bound sawtooth points added or lowered.
	PointsAdded int
	// PlanesAdded counts lower-bound hyperplanes kept by the set.
	PlanesAdded int
	// DeepestDepth is the deepest exploration depth any trial reached.
	DeepestDepth int
	// Converged reports whether FinalGap ≤ Epsilon.
	Converged bool
	// Wall is the wall-clock time of the Run.
	Wall time.Duration
}

// Refiner performs HSVI-style point-based refinement of a paired bound: a
// lower-bound hyperplane Set improved by the incremental backups of
// Equation 7 and a sawtooth UpperBound improved by belief-MDP backups, with
// beliefs chosen by gap-weighted forward exploration from a root belief
// (greedy action under the upper bound, successor with the largest
// probability-weighted excess gap — the IE-MAX/HSVI sampling rule, the loop
// shape of SARSOP/PBVI solvers). Both bounds tighten monotonically; the
// refined Set remains a plain Set, so the Max-Avg tree and the FSC compiler
// consume it unchanged.
type Refiner struct {
	p     *pomdp.POMDP
	lower *Updater
	upper *UpperBound
	cfg   RefineConfig
	sc    *pomdp.Scratch
	q     []float64
	path  []pomdp.Belief
}

// NewRefiner builds a refiner improving set and upper in place on model p.
func NewRefiner(p *pomdp.POMDP, set *Set, upper *UpperBound, cfg RefineConfig) (*Refiner, error) {
	cfg = cfg.withDefaults()
	if cfg.Epsilon <= 0 {
		return nil, fmt.Errorf("bounds: non-positive refine epsilon %v", cfg.Epsilon)
	}
	if cfg.MaxTrials < 0 || cfg.MaxDepth <= 0 {
		return nil, fmt.Errorf("bounds: invalid refine budget (trials %d, depth %d)", cfg.MaxTrials, cfg.MaxDepth)
	}
	if upper == nil {
		return nil, fmt.Errorf("bounds: nil upper bound")
	}
	if upper.NumStates() != p.NumStates() {
		return nil, fmt.Errorf("bounds: upper bound over %d states, model has %d", upper.NumStates(), p.NumStates())
	}
	lower, err := NewUpdater(p, set, Options{Beta: cfg.Beta})
	if err != nil {
		return nil, err
	}
	return &Refiner{
		p:     p,
		lower: lower,
		upper: upper,
		cfg:   cfg,
		sc:    pomdp.NewScratch(p),
	}, nil
}

// Set returns the lower-bound hyperplane set being refined.
func (r *Refiner) Set() *Set { return r.lower.Set() }

// Upper returns the upper bound being refined.
func (r *Refiner) Upper() *UpperBound { return r.upper }

// GapAt evaluates the bound gap V̄(π) − V_B⁻(π), clamped at zero, reading
// the lower bound through Peek so inspection cannot perturb least-used
// eviction. A gap below −CrossTol is reported as ErrBoundCrossing.
func (r *Refiner) GapAt(pi pomdp.Belief) (float64, error) {
	up := r.upper.Value(pi)
	lo := r.Set().Peek(pi)
	g := up - lo
	if g < -r.cfg.CrossTol {
		return g, fmt.Errorf("%w at belief %v: upper %.9g < lower %.9g", ErrBoundCrossing, pi, up, lo)
	}
	if g < 0 {
		g = 0
	}
	return g, nil
}

// Run refines both bounds from the given root belief until the root gap
// drops to Epsilon, the trial budget is exhausted, or a trial makes no
// progress (no plane kept, no point added, root gap unchanged — the fixpoint
// a depth-capped exploration can reach on undiscounted models). The partial
// report accompanies any error, including the bound-crossing refusal.
func (r *Refiner) Run(root pomdp.Belief) (RefineReport, error) {
	start := time.Now()
	var rep RefineReport
	done := func(err error) (RefineReport, error) {
		rep.Wall = time.Since(start)
		rep.Converged = rep.FinalGap <= r.cfg.Epsilon && rep.Trials <= r.cfg.MaxTrials
		return rep, err
	}
	if len(root) != r.p.NumStates() {
		return done(fmt.Errorf("bounds: root belief length %d, want %d", len(root), r.p.NumStates()))
	}
	if !root.IsDistribution() {
		return done(fmt.Errorf("bounds: root belief is not a distribution"))
	}
	g, err := r.GapAt(root)
	rep.InitialGap, rep.FinalGap = g, g
	if err != nil {
		return done(err)
	}
	for rep.Trials < r.cfg.MaxTrials && rep.FinalGap > r.cfg.Epsilon {
		planes, points := rep.PlanesAdded, rep.PointsAdded
		if err := r.trial(root, &rep); err != nil {
			return done(err)
		}
		rep.Trials++
		prev := rep.FinalGap
		if rep.FinalGap, err = r.GapAt(root); err != nil {
			return done(err)
		}
		if rep.PlanesAdded == planes && rep.PointsAdded == points && rep.FinalGap >= prev {
			break // a whole trial changed nothing; further trials won't either
		}
	}
	return done(nil)
}

// trial runs one forward-exploration pass: walk from root by the HSVI
// sampling rule collecting a belief path, then back up both bounds at every
// visited belief, deepest first (so shallower backups see the already-
// tightened bounds of their successors).
func (r *Refiner) trial(root pomdp.Belief, rep *RefineReport) error {
	r.path = append(r.path[:0], root)
	cur := root
	for depth := 1; depth < r.cfg.MaxDepth; depth++ {
		// Greedy action under the upper bound (IE-MAX): explore where the
		// optimistic value says the optimum might still hide.
		res, err := pomdp.BackupInto(r.p, r.sc, cur, r.cfg.Beta, r.upper, r.q)
		if err != nil {
			return err
		}
		r.q = res.QValues
		// Successor with the largest probability-weighted excess gap; stop
		// when every successor is already within epsilon.
		var next pomdp.Belief
		bestW := 0.0
		for _, succ := range r.p.Successors(r.sc, cur, res.Action) {
			g, err := r.GapAt(succ.Belief)
			if err != nil {
				return err
			}
			if w := succ.Prob * (g - r.cfg.Epsilon); w > bestW {
				bestW, next = w, succ.Belief
			}
		}
		if next == nil {
			break
		}
		r.path = append(r.path, next)
		cur = next
		if depth+1 > rep.DeepestDepth {
			rep.DeepestDepth = depth + 1
		}
	}
	for i := len(r.path) - 1; i >= 0; i-- {
		if err := r.backupAt(r.path[i], rep); err != nil {
			return err
		}
	}
	return nil
}

// backupAt tightens both bounds at one belief: an incremental hyperplane
// backup (Equation 7) for the lower bound and a belief-MDP backup evaluated
// through the sawtooth bound for the upper, then verifies the pair is still
// ordered there.
func (r *Refiner) backupAt(pi pomdp.Belief, rep *RefineReport) error {
	lres, err := r.lower.UpdateAt(pi)
	if err != nil {
		return err
	}
	if lres.Added {
		rep.PlanesAdded++
	}
	ures, err := pomdp.BackupInto(r.p, r.sc, pi, r.cfg.Beta, r.upper, r.q)
	if err != nil {
		return err
	}
	r.q = ures.QValues
	added, err := r.upper.AddPoint(pi, ures.Value)
	if err != nil {
		return err
	}
	if added {
		rep.PointsAdded++
	}
	rep.Backups++
	_, err = r.GapAt(pi)
	return err
}
