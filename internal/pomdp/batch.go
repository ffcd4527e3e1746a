package pomdp

import (
	"fmt"
	"slices"
)

// BatchValueFn is a ValueFn that can additionally evaluate many beliefs in
// one pass. Implementations must make ValueBatch agree bit-for-bit with
// per-belief Value calls — batched evaluation is an amortization, never an
// approximation — so callers may freely substitute one for the other.
type BatchValueFn interface {
	ValueFn
	// ValueBatch writes Value(pis[j]) into out[j] for every j, growing out
	// if its capacity is insufficient, and returns it. counts[j] is the
	// multiplicity of pis[j] — how many logical evaluations the one entry
	// stands for — so an evaluator with per-evaluation side effects (the
	// bound set's use counters) can account for them as if pis[j] had been
	// repeated counts[j] times. A nil counts means one each.
	ValueBatch(pis []Belief, counts []uint64, out []float64) []float64
}

// SuccessorBuf accumulates the successor beliefs of many (belief, action)
// expansions into one contiguous arena, so a batched Max-Avg engine can
// enumerate a whole frontier without per-successor allocations and then hand
// the frontier to a BatchValueFn in a single call.
//
// The posts/gamma scratch is kept dense (|O|·|S| and |O|) and re-zeroed
// after every expansion, which keeps AppendSuccessors allocation-free and
// its arithmetic identical to Successors'. A SuccessorBuf may be reused
// across calls but not concurrently.
type SuccessorBuf struct {
	n     int
	posts []float64 // |O|·|S| dense scratch; rows zeroed after use
	gamma []float64 // |O| scratch; zeroed after use
	arena []float64 // normalized posterior beliefs, back to back
	probs []float64 // observation probability per appended successor
	vals  []float64 // leaf value per kept successor, filled by BackupInto
	pis   []Belief  // lazily rebuilt views into arena
}

// NewSuccessorBuf returns a SuccessorBuf sized for model p.
func NewSuccessorBuf(p *POMDP) *SuccessorBuf {
	n, no := p.NumStates(), p.NumObservations()
	return &SuccessorBuf{
		n:     n,
		posts: make([]float64, no*n),
		gamma: make([]float64, no),
	}
}

// Reset discards the accumulated successors, keeping the arena capacity.
func (b *SuccessorBuf) Reset() {
	b.arena = b.arena[:0]
	b.probs = b.probs[:0]
	b.vals = b.vals[:0]
}

// Values returns the leaf values BackupInto evaluated the kept successors
// at, aligned with Probs and Beliefs. It is empty after a Reset and stale
// after an AppendSuccessors that no BackupInto made.
func (b *SuccessorBuf) Values() []float64 { return b.vals }

// Reserve makes room for m successors and their leaf values, so that
// accumulating up to m of them after a Reset allocates nothing.
func (b *SuccessorBuf) Reserve(m int) {
	b.arena = slices.Grow(b.arena[:0], m*b.n)
	b.probs = slices.Grow(b.probs[:0], m)
	b.vals = slices.Grow(b.vals[:0], m)
}

// belief returns a view of the k-th accumulated successor.
func (b *SuccessorBuf) belief(k int) Belief { return Belief(b.arena[k*b.n : (k+1)*b.n]) }

// keep moves successors lo to hi (exclusive) to the front and drops the
// rest; copying leaves every bit as it was.
func (b *SuccessorBuf) keep(lo, hi int) {
	if lo > 0 {
		copy(b.arena, b.arena[lo*b.n:hi*b.n])
		copy(b.probs, b.probs[lo:hi])
		copy(b.vals, b.vals[lo:hi])
	}
	b.arena, b.probs, b.vals = b.arena[:(hi-lo)*b.n], b.probs[:hi-lo], b.vals[:hi-lo]
}

// Probs returns the observation probabilities γ(o) of the accumulated
// successors, in append order. The slice is valid until the next Reset.
func (b *SuccessorBuf) Probs() []float64 { return b.probs }

// Beliefs returns the accumulated successor beliefs as views into the
// arena, in append order. The headers are rebuilt on each call (appending
// may have moved the arena), so call it after the expansions, not before.
// The beliefs are valid until the next Reset.
func (b *SuccessorBuf) Beliefs() []Belief {
	m := len(b.probs)
	if cap(b.pis) < m {
		b.pis = make([]Belief, m)
	}
	b.pis = b.pis[:m]
	for i := range b.pis {
		b.pis[i] = b.belief(i)
	}
	return b.pis
}

// AppendSuccessors enumerates the successors of (pi, a) exactly as
// Successors does — same observation order, same floating-point operation
// sequence, so the appended beliefs and probabilities are bit-identical to
// Successors' — but appends them to buf instead of allocating a fresh slice
// per call. It returns the number of successors appended.
func (p *POMDP) AppendSuccessors(sc *Scratch, buf *SuccessorBuf, pi Belief, a int) int {
	if buf.n != p.NumStates() {
		panic(fmt.Sprintf("pomdp: successor buffer over %d states, model has %d", buf.n, p.NumStates()))
	}
	p.Predict(sc.pred, pi, a)
	n, no := p.NumStates(), p.NumObservations()

	// weights[o][s] = pred(s)·q(o|s,a); built sparsely by walking Obs rows.
	// buf.posts and buf.gamma are zero on entry (the invariant below).
	posts, gamma := buf.posts, buf.gamma
	for s := 0; s < n; s++ {
		ps := sc.pred[s]
		if ps == 0 {
			continue
		}
		p.Obs[a].Row(s, func(o int, q float64) {
			w := ps * q
			if w == 0 {
				return
			}
			posts[o*n+s] += w
			gamma[o] += w
		})
	}
	added := 0
	for o := 0; o < no; o++ {
		if gamma[o] <= 0 {
			continue
		}
		row := posts[o*n : (o+1)*n]
		inv := 1 / gamma[o]
		start := len(buf.arena)
		buf.arena = append(buf.arena, row...)
		dst := buf.arena[start:]
		for i := range dst {
			dst[i] *= inv
		}
		buf.probs = append(buf.probs, gamma[o])
		// Restore the zero invariant for the next expansion.
		for i := range row {
			row[i] = 0
		}
		gamma[o] = 0
		added++
	}
	return added
}
