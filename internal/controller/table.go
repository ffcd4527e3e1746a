package controller

import (
	"fmt"
	"sync"
	"sync/atomic"

	"bpomdp/internal/bounds"
	"bpomdp/internal/pomdp"
)

// The decision table has tableSlots slots in two-way buckets: a belief
// hashes to one bucket and may sit in either of its slots, so two recurring
// beliefs that share a bucket do not evict each other on every request, as
// they would in a direct-mapped table. The size is a constant, not a
// setting: recovery traffic reaches a few dozen distinct beliefs (32 over
// 155k decisions of a batched EMN campaign), and a full table stays under
// tableSlots × (|S|·8 + 72) bytes.
const (
	bucketBits = 11
	tableSlots = 2 << bucketBits
)

// DecisionTable is an exact, shared memo of the Max-Avg tree in front of
// Bounded controllers: while the bound set keeps its Generation, the tree's
// Decision at a belief is a pure function of the belief's bits, so a
// decision computed once answers every later request for the same bits.
//
// Each slot holds one immutable entry {set generation, hashBelief(π), copy
// of π, Decision}, published through an atomic pointer, so reads take no
// lock; an entry matches only at the same generation and with
// pomdp.SameBits — the equivalence the engine's belief merging uses. A new
// entry takes an empty or stale slot of its bucket, or else overwrites one,
// so beliefs that crowd one bucket evict each other but still decide
// exactly.
//
// A table serves the controllers of one model, bound set, depth, discount
// and terminate action: UseTable binds it to the first controller's and
// refuses the rest.
type DecisionTable struct {
	slots        [tableSlots]atomic.Pointer[tableEntry]
	hits, misses atomic.Uint64

	ownerMu sync.Mutex
	owner   tableOwner // set by the first UseTable; zero until then
}

// tableEntry is one memoised tree decision; it is never modified once
// stored.
type tableEntry struct {
	gen  uint64
	hash uint64
	pi   pomdp.Belief
	d    Decision
}

// tableOwner is what a tree decision depends on besides the belief and the
// set's generation.
type tableOwner struct {
	p         *pomdp.POMDP
	set       *bounds.Set
	depth     int
	beta      float64
	terminate int
}

// NewDecisionTable returns an empty table, bound to no controller yet.
func NewDecisionTable() *DecisionTable { return new(DecisionTable) }

// Hits returns how many beliefs were answered from the table.
func (t *DecisionTable) Hits() uint64 { return t.hits.Load() }

// Misses returns how many beliefs consulted the table and went to the tree.
func (t *DecisionTable) Misses() uint64 { return t.misses.Load() }

// bucket returns the two slots a belief whose hashBelief is h may occupy.
func (t *DecisionTable) bucket(h uint64) *[2]atomic.Pointer[tableEntry] {
	i := 2 * (h >> (64 - bucketBits))
	return (*[2]atomic.Pointer[tableEntry])(t.slots[i : i+2])
}

// lookup returns the stored decision for pi (whose hashBelief is h) at set
// generation gen.
func (t *DecisionTable) lookup(gen, h uint64, pi pomdp.Belief) (Decision, bool) {
	b := t.bucket(h)
	for i := range b {
		if e := b[i].Load(); e != nil && e.gen == gen && e.hash == h && pomdp.SameBits(e.pi, pi) {
			return e.d, true
		}
	}
	return Decision{}, false
}

// insert stores d as the decision for a copy of pi at generation gen, in
// an empty or stale slot of its bucket if there is one and in the slot
// named by the hash's low bit otherwise. The caller holds the set's Mutex,
// so the set is at generation gen throughout.
func (t *DecisionTable) insert(gen, h uint64, pi pomdp.Belief, d Decision) {
	if _, ok := t.lookup(gen, h, pi); ok {
		return // a duplicate within the batch
	}
	b := t.bucket(h)
	victim := &b[h&1]
	for i := range b {
		if e := b[i].Load(); e == nil || e.gen != gen {
			victim = &b[i]
			break
		}
	}
	victim.Store(&tableEntry{gen: gen, hash: h, pi: pi.Clone(), d: d})
}

// count records one batch's hits and misses, one atomic add each.
func (t *DecisionTable) count(hits, misses uint64) {
	if hits > 0 {
		t.hits.Add(hits)
	}
	if misses > 0 {
		t.misses.Add(misses)
	}
}

// UseTable puts t in front of b's tree expansion. It is consulted only on
// the read-only path: not with ImproveOnline, CheckConsistency or
// CollectStats, and not while the set has a capacity, which is checked on
// every call because least-used eviction must see every leaf use and a hit
// expands nothing. Decisions are bit-identical to b's without the table.
// It fails when t already serves a controller over a different model, set,
// depth, discount or terminate action.
func (b *Bounded) UseTable(t *DecisionTable) error {
	o := tableOwner{p: b.p, set: b.set, depth: b.cfg.Depth, beta: b.cfg.Beta, terminate: b.cfg.TerminateAction}
	t.ownerMu.Lock()
	defer t.ownerMu.Unlock()
	if t.owner == (tableOwner{}) {
		t.owner = o
	} else if t.owner != o {
		return fmt.Errorf("controller: decision table serves another model, bound set, depth, discount or terminate action")
	}
	b.table = t
	return nil
}

// readTable returns the attached table when the current call may use it.
// The caller holds the set's Mutex.
func (b *Bounded) readTable() *DecisionTable {
	if b.table == nil || b.updater != nil || b.cfg.CheckConsistency || b.cfg.CollectStats || b.set.Capacity() > 0 {
		return nil
	}
	return b.table
}
