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
// points are stored structure-of-arrays style in one contiguous slab. Value
// reads each point through its support index instead: the (s, c_i(s))
// pairs with c_i(s) > 0, in ascending s, which are the only entries μ_i
// depends on, and the same support as a bitset. A point whose support
// meets a state where π(s) ≤ 0 costs Value one AND per 64 states; the rest
// cost their support size, not n.
//
// An UpperBound is not safe for concurrent mutation, but Value is safe from
// several goroutines on a bound nobody is mutating.
type UpperBound struct {
	corner   linalg.Vector
	pts      []float64 // point i is pts[i*n : (i+1)*n]
	vals     []float64 // vals[i] is the stored value at point i
	cornerAt []float64 // cornerAt[i] = U₀·c_i, precomputed at insertion
	supp     []suppEntry
	suppOff  []int    // point i's support is supp[suppOff[i]:suppOff[i+1]]
	suppBits []uint64 // point i's support as a bitset: words i*w … i*w+w−1, w = ⌈n/64⌉
	n        int
}

// suppEntry is one support entry of a sawtooth point: state s and c_i(s).
type suppEntry struct {
	s int
	c float64
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
		corner:  append(linalg.Vector(nil), corner...),
		suppOff: []int{0},
		n:       len(corner),
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
//
// Both steps below are exact: the result is bit-identical to a scan of all
// n entries of every point.
//   - A point whose support meets {s : π(s) ≤ 0} is skipped. A scan would
//     find r = π(s)/c_i(s) ≤ 0 there, so its μ_i ends ≤ 0 (μ only falls,
//     or stops at r == 0) and the point is skipped anyway.
//   - μ_i of the other points is taken over the support index. The entries
//     with c_i(s) ≤ 0 (or NaN) are the ones a scan would skip or could not
//     lower μ_i with, and the rest are visited in the same ascending order
//     with the same comparisons and the same stop at r == 0.
func (u *UpperBound) Value(pi pomdp.Belief) float64 {
	base := linalg.DotUnrolled(pi, u.corner)
	best := base
	w := words(u.n)
	var buf [4]uint64
	var empty []uint64 // {s : π(s) ≤ 0} as a bitset
	if w <= len(buf) {
		empty = buf[:w]
	} else {
		empty = make([]uint64, w)
	}
	for s, x := range pi {
		if x <= 0 {
			empty[s>>6] |= 1 << (s & 63)
		}
	}
points:
	for i := range u.vals {
		for k, e := range empty {
			if u.suppBits[i*w+k]&e != 0 {
				continue points // π has no mass on some support state of c_i
			}
		}
		drop := u.vals[i] - u.cornerAt[i]
		if drop >= 0 {
			continue // the point does not improve on the corner plane
		}
		mu := math.Inf(1)
		for _, e := range u.supp[u.suppOff[i]:u.suppOff[i+1]] {
			if r := pi[e.s] / e.c; r < mu {
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
	u.appendPoint(pi, v)
	return true, nil
}

// appendPoint stores point c with value v, and its support index.
func (u *UpperBound) appendPoint(c []float64, v float64) {
	u.pts = append(u.pts, c...)
	u.vals = append(u.vals, v)
	u.cornerAt = append(u.cornerAt, linalg.DotUnrolled(c, u.corner))
	bits := len(u.suppBits)
	u.suppBits = append(u.suppBits, make([]uint64, words(u.n))...)
	for s, cs := range c {
		if cs > 0 {
			u.supp = append(u.supp, suppEntry{s, cs})
			u.suppBits[bits+s>>6] |= 1 << (s & 63)
		}
	}
	u.suppOff = append(u.suppOff, len(u.supp))
}

// words is the number of 64-bit words in a bitset over n states.
func words(n int) int { return (n + 63) / 64 }

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
	buf   *pomdp.SuccessorBuf // successor beliefs of the current backup or expansion
	q     []float64
	path  []float64 // the current trial's beliefs, back to back
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
	buf := pomdp.NewSuccessorBuf(p)
	buf.Reserve(2 * p.NumObservations()) // the most BackupInto holds
	return &Refiner{
		p:     p,
		lower: lower,
		upper: upper,
		cfg:   cfg,
		sc:    pomdp.NewScratch(p),
		buf:   buf,
	}, nil
}

// Set returns the lower-bound hyperplane set being refined.
func (r *Refiner) Set() *Set { return r.lower.Set() }

// GapAt evaluates the bound gap V̄(π) − V_B⁻(π), clamped at zero, reading
// the lower bound through Peek so inspection cannot perturb least-used
// eviction. A gap below −CrossTol is reported as ErrBoundCrossing.
func (r *Refiner) GapAt(pi pomdp.Belief) (float64, error) {
	return r.gap(pi, r.upper.Value(pi))
}

// gap is GapAt with the upper bound's value at pi, up, already known.
func (r *Refiner) gap(pi pomdp.Belief, up float64) (float64, error) {
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
	n := len(root)
	r.path = append(r.path[:0], root...)
	cur := pomdp.Belief(r.path)
	for depth := 1; depth < r.cfg.MaxDepth; depth++ {
		// Greedy action under the upper bound (IE-MAX): explore where the
		// optimistic value says the optimum might still hide.
		res, err := pomdp.BackupInto(r.p, r.sc, r.buf, cur, r.cfg.Beta, r.upper, r.q)
		if err != nil {
			return err
		}
		r.q = res.QValues
		// Successor with the largest probability-weighted excess gap; stop
		// when every successor is already within epsilon. The backup left
		// the greedy action's successors in buf with their upper values.
		probs, ups := r.buf.Probs(), r.buf.Values()
		var next pomdp.Belief
		bestW := 0.0
		for k, succ := range r.buf.Beliefs() {
			g, err := r.gap(succ, ups[k])
			if err != nil {
				return err
			}
			if w := probs[k] * (g - r.cfg.Epsilon); w > bestW {
				bestW, next = w, succ
			}
		}
		if next == nil {
			break
		}
		r.path = append(r.path, next...)
		cur = r.path[len(r.path)-n:]
		if depth+1 > rep.DeepestDepth {
			rep.DeepestDepth = depth + 1
		}
	}
	for end := len(r.path); end > 0; end -= n {
		if err := r.backupAt(r.path[end-n:end], rep); err != nil {
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
	ures, err := pomdp.BackupInto(r.p, r.sc, r.buf, pi, r.cfg.Beta, r.upper, r.q)
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
