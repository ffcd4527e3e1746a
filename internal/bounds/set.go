// Package bounds implements value-function bounds for POMDPs: the paper's
// RA-Bound (Section 3) with its convergence machinery for undiscounted
// recovery models, the two comparison lower bounds from the literature
// (BI-POMDP and the blind-policy method) whose divergence on recovery models
// the paper demonstrates, the incremental linear-function improvement scheme
// of Section 4.1, and — as the extension the paper's conclusion calls for —
// a QMDP-style upper bound usable for gap diagnostics and as the corner of
// the HSVI refiner's sawtooth upper bound.
//
// A lower bound is represented as a set of hyperplanes over the belief
// simplex: B = {b₁, …, b_k} with V_B⁻(π) = max_b π·b (Equation 6). The
// RA-Bound alone is the single hyperplane [V_m⁻(s)]_s.
//
// The dual upper bound is a sawtooth point set (UpperBound): a per-state
// corner vector (QMDP or the trivial zero bound of Condition 2) plus belief
// points with known upper-bound values, interpolated by convexity. Refiner
// pairs the two and tightens both HSVI-style — gap-weighted forward
// exploration from a root belief, dual backups at every visited point —
// until the root gap closes. Both structures tighten monotonically: Set.Add
// only raises the lower envelope and UpperBound.AddPoint only lowers the
// sawtooth, so the gap is pointwise nonincreasing over a refinement run,
// and a pair that ever crosses is refused with ErrBoundCrossing. The
// refined Set stays a plain Set, consumed unchanged by the Max-Avg tree and
// the FSC compiler.
package bounds

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"bpomdp/internal/linalg"
	"bpomdp/internal/pomdp"
)

// ErrUnbounded is wrapped by bound computations whose value diverges to -∞
// on the given model (the failure mode of BI-POMDP and blind-policy bounds
// on undiscounted recovery models).
var ErrUnbounded = errors.New("bounds: bound diverges on this model")

// ErrEmptySet is returned when evaluating an empty hyperplane set.
var ErrEmptySet = errors.New("bounds: empty hyperplane set")

// Set is a collection of lower-bound hyperplanes over the belief simplex,
// with the max-of-hyperplanes evaluation of Equation 6, dominated-plane
// pruning, and an optional capacity with least-used eviction (the finite-
// storage strategy sketched in Section 4.3 of the paper).
//
// The planes are stored state-major in one contiguous []float64: with P
// planes, entry k of plane i sits at cols[k·P+i], so column k holds every
// plane's coefficient for state k. The max-of-hyperplanes scan (scan) reads
// only the columns of a belief's nonzero states and feeds P independent
// per-plane sums from each, which skips the zero entries of sparse recovery
// beliefs and lets the CPU pipeline the P accumulation chains.
//
// A Set is not safe for concurrent mutation (Add vs anything else), but
// Value/ValueArg/Peek/ValueBatch are safe to call from several goroutines at
// once on a set nobody is mutating — the scan scratch comes from a package
// pool and the usage counters behind least-used eviction are updated
// atomically — so read-only controllers may share one set (e.g. a pool of
// campaign workers evaluating the same bootstrapped bound). Controllers
// that share a set while one of them mutates it serialise on Mutex.
type Set struct {
	lock      sync.RWMutex
	cols      []float64 // entry k of plane i is cols[k*Size()+i]
	uses      []uint64  // accessed atomically in ValueArg/ValueBatch; plainly under mutation
	maxLen    int       // 0 = unlimited
	n         int       // state count
	evictions uint64    // capacity evictions performed; read atomically by Evictions
	gen       uint64    // plane-slab mutations so far; see Generation
}

// accPool holds scan's per-plane accumulator scratch. It lives at package
// level, not in the Set, so goroutines sharing one set never share scratch.
var accPool = sync.Pool{New: func() any { return new([]float64) }}

// getAcc returns pooled accumulator scratch with capacity for p planes.
func getAcc(p int) *[]float64 {
	acc := accPool.Get().(*[]float64)
	if cap(*acc) < p {
		*acc = make([]float64, p)
	}
	return acc
}

// NewSet creates a hyperplane set over an n-state belief space, seeded with
// the given base hyperplanes (each of length n).
func NewSet(n int, base ...linalg.Vector) (*Set, error) {
	if n <= 0 {
		return nil, fmt.Errorf("bounds: non-positive state count %d", n)
	}
	s := &Set{n: n}
	for i, b := range base {
		if len(b) != n {
			return nil, fmt.Errorf("bounds: base hyperplane %d has length %d, want %d", i, len(b), n)
		}
		if !b.IsFinite() {
			return nil, fmt.Errorf("bounds: base hyperplane %d is not finite", i)
		}
		s.appendPlane(b)
	}
	return s, nil
}

// Mutex is the lock controllers sharing the set hold across a decision:
// write-held by one that mutates the set (online improvement), read-held
// by the rest. The set's own methods never take it; it orders their
// callers.
func (s *Set) Mutex() *sync.RWMutex { return &s.lock }

// Generation counts the mutations of the plane slab so far: every plane
// appended or removed (by Add, its pruning or its eviction) and every
// UnmarshalJSON advances it, and nothing else does, so V_B⁻ — and every
// decision made over the set — is a pure function of the belief while it
// stays put. Read it where the planes are read: under Mutex when
// controllers share the set.
func (s *Set) Generation() uint64 { return s.gen }

// SetCapacity bounds the number of stored hyperplanes; when an Add would
// exceed it, the least-used plane (other than the first, which is kept as
// the always-valid base) is evicted. Zero removes the limit.
func (s *Set) SetCapacity(maxLen int) { s.maxLen = maxLen }

// Capacity returns the plane cap, 0 when the set is unlimited.
func (s *Set) Capacity() int { return s.maxLen }

// Size returns the number of stored hyperplanes.
func (s *Set) Size() int { return len(s.uses) }

// NumStates returns the dimension of the underlying belief space.
func (s *Set) NumStates() int { return s.n }

// at returns entry k of plane i.
func (s *Set) at(i, k int) float64 { return s.cols[k*len(s.uses)+i] }

// column returns column k: entry k of every plane, in plane order.
func (s *Set) column(k int) []float64 {
	p := len(s.uses)
	return s.cols[k*p : (k+1)*p]
}

// scan is the set's one max-of-hyperplanes loop. It returns max_i π·plane_i
// and the first maximizing plane (-Inf and -1 for an empty set), using acc
// (capacity at least Size()) for the per-plane sums.
//
// Every value is bit-identical to linalg.DotUnrolled(pi, plane): each plane
// is summed by its own accumulator in ascending state order with the same
// s += x*y shape. Skipping the states with pi[k] == 0 is exact because the
// planes are finite (NewSet, Add and UnmarshalJSON refuse anything else), so
// a skipped term is ±0; adding ±0 leaves a nonzero sum unchanged, and a sum
// that starts at +0 never becomes −0, so adding ±0 to a zero sum leaves +0.
func (s *Set) scan(pi []float64, acc []float64) (float64, int) {
	if len(pi) != s.n {
		panic(fmt.Sprintf("bounds: belief length %d, want %d", len(pi), s.n))
	}
	p := len(s.uses)
	acc = acc[:p]
	clear(acc)
	for k, x := range pi {
		if x == 0 {
			continue
		}
		// Four planes per pass: the same one multiply-add per plane, but a
		// loop body that does not run at half speed when code layout puts
		// a one-plane loop across a 64-byte boundary (set_value_batch read
		// 1.4x slower for that alone).
		col := s.cols[k*p:][:len(acc)]
		i := 0
		for ; i+4 <= len(acc); i += 4 {
			a, c := acc[i:i+4:i+4], col[i:i+4:i+4]
			a[0] += x * c[0]
			a[1] += x * c[1]
			a[2] += x * c[2]
			a[3] += x * c[3]
		}
		for ; i < len(acc); i++ {
			acc[i] += x * col[i]
		}
	}
	best, arg := math.Inf(-1), -1
	for i, v := range acc {
		if v > best {
			best, arg = v, i
		}
	}
	return best, arg
}

// Value evaluates V_B⁻(π) = max_b π·b and records a use of the maximizing
// plane. It panics on dimension mismatch (beliefs are validated upstream)
// and returns -Inf for an empty set.
func (s *Set) Value(pi pomdp.Belief) float64 {
	v, _ := s.ValueArg(pi)
	return v
}

// scanOne runs scan for a single belief. Its scratch lives on the stack
// when the set is small enough, since a pool round trip would cost a
// noticeable share of a small scan, and comes from accPool otherwise.
func (s *Set) scanOne(pi []float64) (float64, int) {
	var buf [64]float64
	if len(s.uses) <= len(buf) {
		return s.scan(pi, buf[:])
	}
	acc := getAcc(len(s.uses))
	best, arg := s.scan(pi, *acc)
	accPool.Put(acc)
	return best, arg
}

// ValueArg is Value plus the index of the maximizing hyperplane (-1 when
// the set is empty).
func (s *Set) ValueArg(pi pomdp.Belief) (float64, int) {
	best, arg := s.scanOne(pi)
	if arg >= 0 {
		atomic.AddUint64(&s.uses[arg], 1)
	}
	return best, arg
}

// ValueBatch evaluates V_B⁻ at every belief in pis, writing the values into
// out (grown if its capacity is insufficient) and returning it. Each value
// is exactly ValueArg's on the same belief, and the maximizing plane's usage
// counter advances by counts[j] (1 when counts is nil), so a batch that
// carries one entry with count c leaves the counters — and hence least-used
// eviction — exactly as c repeated entries would. The batch shares one
// accumulator scratch, taken from the stack like scanOne's when the set is
// small enough, and with a preallocated out the call performs no
// allocations.
func (s *Set) ValueBatch(pis []pomdp.Belief, counts []uint64, out []float64) []float64 {
	m := len(pis)
	if counts != nil && len(counts) != m {
		panic(fmt.Sprintf("bounds: %d counts for %d beliefs", len(counts), m))
	}
	if cap(out) < m {
		out = make([]float64, m)
	}
	out = out[:m]
	var buf [64]float64
	if len(s.uses) <= len(buf) {
		s.scanBatch(pis, counts, out, buf[:])
		return out
	}
	acc := getAcc(len(s.uses))
	s.scanBatch(pis, counts, out, *acc)
	accPool.Put(acc)
	return out
}

// scanBatch is ValueBatch's loop over the batch, with acc as scan scratch.
func (s *Set) scanBatch(pis []pomdp.Belief, counts []uint64, out, acc []float64) {
	for j, pi := range pis {
		var arg int
		out[j], arg = s.scan(pi, acc)
		if arg >= 0 {
			c := uint64(1)
			if counts != nil {
				c = counts[j]
			}
			atomic.AddUint64(&s.uses[arg], c)
		}
	}
}

// Peek evaluates V_B⁻(π) without recording a use of the maximizing plane.
// Observability callers (decision stats, bound-gap traces) use it so that
// inspecting the bound cannot perturb least-used eviction and thereby change
// which planes a capacity-limited set keeps.
func (s *Set) Peek(pi pomdp.Belief) float64 {
	best, _ := s.scanOne(pi)
	return best
}

// Evictions returns the number of capacity evictions performed so far. Safe
// to call concurrently with readers; like Size it may race with an Add.
func (s *Set) Evictions() uint64 { return atomic.LoadUint64(&s.evictions) }

// Uses returns how many evaluations plane i has won — the counter
// least-used eviction ranks planes by.
func (s *Set) Uses(i int) uint64 { return atomic.LoadUint64(&s.uses[i]) }

// Plane returns (a copy of) hyperplane i.
func (s *Set) Plane(i int) linalg.Vector {
	_ = s.uses[i] // an out-of-range i must panic, not read a neighbouring plane
	out := make(linalg.Vector, s.n)
	for k := range out {
		out[k] = s.at(i, k)
	}
	return out
}

// Add inserts a new hyperplane unless it is pointwise dominated by an
// existing one (in which case it can never be the max anywhere on the
// simplex and is discarded, per Section 4.1: "any additional bound
// hyperplanes that are not better in at least some regions of the
// probability simplex can be discarded"). It returns whether the plane was
// kept. Planes that dominate existing ones cause the dominated ones to be
// pruned. If a capacity is set, the least-used non-base plane is evicted to
// make room.
func (s *Set) Add(b linalg.Vector) (bool, error) {
	if len(b) != s.n {
		return false, fmt.Errorf("bounds: hyperplane length %d, want %d", len(b), s.n)
	}
	if !b.IsFinite() {
		return false, fmt.Errorf("bounds: non-finite hyperplane")
	}
	const tol = 1e-12
	for i := 0; i < s.Size(); i++ {
		if above, _ := s.dominance(i, b, tol); above {
			return false, nil
		}
	}
	// Prune planes the newcomer dominates (never the base plane at index 0,
	// which callers rely on for the Property 1(b) guarantee). Walking down
	// leaves the planes still to be visited at their indices.
	for i := s.Size() - 1; i >= 1; i-- {
		if _, below := s.dominance(i, b, tol); below {
			s.removeAt(i)
		}
	}
	if s.maxLen > 0 && s.Size() >= s.maxLen {
		s.evictLeastUsed()
	}
	s.appendPlane(b)
	return true, nil
}

// dominance reports whether plane i ≥ b pointwise (above) and whether
// b ≥ plane i pointwise (below), both within tol.
func (s *Set) dominance(i int, b []float64, tol float64) (above, below bool) {
	above, below = true, true
	for k, bk := range b {
		v := s.at(i, k)
		if v < bk-tol {
			above = false
		}
		if bk < v-tol {
			below = false
		}
	}
	return above, below
}

// appendPlane adds b as the last plane, restriding every column from P to
// P+1 entries. The move runs back to front, so in place no entry is
// overwritten before it has moved; a full buffer is replaced by one of
// doubled capacity, so growth is amortised.
func (s *Set) appendPlane(b []float64) {
	p := len(s.uses)
	need := (p + 1) * s.n
	src, dst := s.cols, s.cols
	if cap(dst) < need {
		dst = make([]float64, need, 2*need)
	}
	dst = dst[:need]
	for k := s.n - 1; k >= 0; k-- {
		copy(dst[k*(p+1):], src[k*p:(k+1)*p])
		dst[k*(p+1)+p] = b[k]
	}
	s.cols = dst
	s.uses = append(s.uses, 0)
	s.gen++
}

// removeAt deletes plane i, restriding every column from P to P−1 entries
// in place (front to back: every entry moves to a lower index).
func (s *Set) removeAt(i int) {
	p := len(s.uses)
	w := 0
	for k := 0; k < s.n; k++ {
		col := s.cols[k*p : (k+1)*p]
		w += copy(s.cols[w:], col[:i])
		w += copy(s.cols[w:], col[i+1:])
	}
	s.cols = s.cols[:w]
	s.uses = append(s.uses[:i], s.uses[i+1:]...)
	s.gen++
}

func (s *Set) evictLeastUsed() {
	if s.Size() <= 1 {
		return
	}
	victim := 1
	for i := 2; i < s.Size(); i++ {
		if s.uses[i] < s.uses[victim] {
			victim = i
		}
	}
	s.removeAt(victim)
	atomic.AddUint64(&s.evictions, 1)
}

// The set is usable directly as a (batched) leaf evaluator.
var (
	_ pomdp.ValueFn      = (*Set)(nil)
	_ pomdp.BatchValueFn = (*Set)(nil)
)
