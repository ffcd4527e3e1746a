// Package rng provides deterministic, splittable random-number streams for
// reproducible simulation campaigns.
//
// Every stochastic component in the repository (fault injection, monitor
// output sampling, bootstrap belief generation, random tie-breaking) draws
// from a Stream derived from a root seed and a label path, so an entire
// 10,000-injection campaign is exactly reproducible from a single integer
// seed, and episodes are independent of evaluation order.
package rng

import (
	"fmt"
	"math/rand/v2"
	"strconv"
)

// Stream is a deterministic PRNG stream. Create the root with New and derive
// independent child streams with Split. A Stream is not safe for concurrent
// use; split per goroutine instead.
type Stream struct {
	r    *rand.Rand
	src  *rand.PCG
	seed uint64
	path []byte
}

// FNV-64a parameters; hashing is done inline over the path buffer so child
// derivation needs no hash-state or string allocations.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv64a hashes b with FNV-64a, matching hash/fnv over the same bytes.
func fnv64a(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// New returns the root stream for the given seed.
func New(seed uint64) *Stream {
	src := rand.NewPCG(seed, 0x9e3779b97f4a7c15)
	return &Stream{
		r:    rand.New(src),
		src:  src,
		seed: seed,
	}
}

// Split derives an independent child stream identified by label. Splitting
// is pure: the same (seed, path) always yields the same stream, regardless
// of how much randomness has been consumed from the parent.
func (s *Stream) Split(label string) *Stream {
	child := &Stream{seed: s.seed}
	child.path = append(append(append(child.path, s.path...), '/'), label...)
	child.src = rand.NewPCG(s.seed, fnv64a(child.path))
	child.r = rand.New(child.src)
	return child
}

// SplitN derives a child stream identified by an integer index, convenient
// for per-episode streams.
func (s *Stream) SplitN(label string, n int) *Stream {
	return s.splitNInto(nil, label, n)
}

// SplitNInto is SplitN reusing dst: the destination stream is reseeded in
// place to the exact stream SplitN(label, n) would return — same derivation
// hash, same generator state — without allocating once dst's path buffer has
// warmed up. A nil dst allocates a fresh stream, which is exactly SplitN.
// dst must not be s itself and must not be in use elsewhere.
func (s *Stream) SplitNInto(dst *Stream, label string, n int) *Stream {
	return s.splitNInto(dst, label, n)
}

func (s *Stream) splitNInto(dst *Stream, label string, n int) *Stream {
	if dst == nil {
		dst = &Stream{}
		dst.src = rand.NewPCG(0, 0)
		dst.r = rand.New(dst.src)
	}
	dst.seed = s.seed
	p := append(dst.path[:0], s.path...)
	p = append(p, '/')
	p = append(p, label...)
	p = append(p, '[')
	p = strconv.AppendInt(p, int64(n), 10)
	p = append(p, ']')
	dst.path = p
	dst.src.Seed(s.seed, fnv64a(p))
	return dst
}

// Path returns the label path of this stream (diagnostics only).
func (s *Stream) Path() string { return string(s.path) }

// Float64 returns a uniform value in [0, 1).
func (s *Stream) Float64() float64 { return s.r.Float64() }

// IntN returns a uniform value in [0, n). It panics if n <= 0, matching
// math/rand/v2 semantics.
func (s *Stream) IntN(n int) int { return s.r.IntN(n) }

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (s *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.r.Float64() < p
}

// Categorical samples an index proportionally to the non-negative weights.
// Weights need not be normalized. It returns an error if the weights are
// empty, contain a negative entry, or sum to zero.
func (s *Stream) Categorical(weights []float64) (int, error) {
	if len(weights) == 0 {
		return 0, fmt.Errorf("rng: empty weight vector")
	}
	var total float64
	for i, w := range weights {
		if w < 0 {
			return 0, fmt.Errorf("rng: negative weight %v at index %d", w, i)
		}
		total += w
	}
	if total <= 0 {
		return 0, fmt.Errorf("rng: weights sum to %v", total)
	}
	x := s.r.Float64() * total
	var acc float64
	last := 0
	for i, w := range weights {
		if w == 0 {
			continue
		}
		acc += w
		last = i
		if x < acc {
			return i, nil
		}
	}
	// Floating-point slack: fall back to the last positive-weight index.
	return last, nil
}

// CategoricalSparse is Categorical over a sparse weight row given as
// parallel cols/weights slices (stored entries in ascending column order,
// as a CSR row keeps them). It returns a column index and reproduces
// Categorical on the densified row exactly — the same total, the single
// Float64 draw, and the same accumulation over the non-zero entries — so
// a caller can sample a model row without materializing it.
func (s *Stream) CategoricalSparse(cols []int, weights []float64) (int, error) {
	var total float64
	for i, w := range weights {
		if w < 0 {
			return 0, fmt.Errorf("rng: negative weight %v at index %d", w, cols[i])
		}
		total += w
	}
	if total <= 0 {
		return 0, fmt.Errorf("rng: weights sum to %v", total)
	}
	x := s.r.Float64() * total
	var acc float64
	last := 0
	for i, w := range weights {
		if w == 0 {
			continue
		}
		acc += w
		last = cols[i]
		if x < acc {
			return cols[i], nil
		}
	}
	// Floating-point slack: fall back to the last positive-weight index.
	return last, nil
}

// Shuffle permutes n elements using the provided swap function.
func (s *Stream) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }
