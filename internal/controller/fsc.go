package controller

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"bpomdp/internal/bounds"
	"bpomdp/internal/pomdp"
)

// FSCNode is one node of a compiled finite-state controller: a
// representative belief together with the decision the bounded controller
// made there at compile time, and per-observation edges to successor nodes.
type FSCNode struct {
	// Belief is the exact belief the node represents. Belief evolution is
	// deterministic given (belief, action, observation) and the compiler
	// uses the same update kernel as the runtime filter, so beliefs reached
	// along compiled trajectories match this field bit for bit.
	Belief pomdp.Belief
	// Action, Terminate, and Value replay the Decision the Max-Avg tree
	// produced at Belief at compile time (a_T tie-break included).
	Action    int
	Terminate bool
	Value     float64
	// Gap is the compile-time bound gap Value − V_B⁻(Belief): the Property
	// 1(b) slack the tree observed when the decision was made. The runtime
	// only serves a node whose gap is within the configured threshold.
	Gap float64
	// EdgeAction is the action whose observation function Edges condition
	// on. It equals Action everywhere except root nodes, whose edges follow
	// the episode's initial monitor sweep rather than their own decision.
	EdgeAction int
	// Edges maps each observation to the successor node index, −1 when the
	// observation is impossible under Belief or its successor was beyond the
	// compile budget. Nil for nodes whose decision ends the episode.
	Edges []int32
}

// decision reconstructs the Decision the bounded controller returned at the
// node's belief at compile time.
func (n *FSCNode) decision() Decision {
	return Decision{Action: n.Action, Terminate: n.Terminate, Value: n.Value}
}

// The online region has onlineSlots slots in two-way buckets: a belief
// hashes to one bucket and may sit in either of its slots, so two recurring
// beliefs that share a bucket do not evict each other on every request, as
// they would in a direct-mapped table. The size is a constant, not a
// setting: recovery traffic reaches a few dozen distinct beliefs (32 over
// 155k decisions of a batched EMN campaign), and a full region stays under
// onlineSlots × (|S|·8 + 72) bytes.
const (
	bucketBits  = 11
	onlineSlots = 2 << bucketBits
)

// FSC is the exact belief-keyed decision store of Bounded controllers: a
// memo of the Max-Avg tree's Decision keyed by the belief's bits. It has two
// regions, and both match a belief the way the engine's belief merging does:
// hashBelief finds the candidates and pomdp.SameBits decides.
//
// The frozen region is a compiled finite-state controller: nodes extracted
// offline by CompileFSC (or read back by DecodeFSC), indexed by their
// beliefs and never modified after construction. The nodes and their edges
// are what the bpomdp.fsc/v1 artifact persists.
//
// The online region memoises the tree at run time. While the bound set
// keeps its Generation, the tree's Decision at a belief is a pure function
// of the belief's bits, so a decision computed once answers every later
// request for the same bits. Each slot holds one immutable entry {set
// generation, hashBelief(π), copy of π, Decision}, published through an
// atomic pointer, so reads take no lock; an entry matches only at the
// set's current generation. A new entry takes an empty or stale slot of its
// bucket, or else overwrites one, so beliefs that crowd one bucket evict
// each other but still decide exactly. The online region is never
// persisted.
//
// An FSC with no compiled nodes (NewFSC) is the online region alone. One FSC
// is shared by any number of controllers over one model, bound set, depth,
// discount and terminate action (see UseFSC). After construction only its
// online slots and counters change, all atomically, and the owner the first
// UseFSC binds, under ownerMu; deciding takes no lock of the FSC's own.
type FSC struct {
	states          int
	actions         int
	observations    int
	depth           int
	beta            float64
	terminateAction int

	// The frozen region.
	nodes           []FSCNode
	index           map[uint64][]int32 // hashBelief of a node's belief → the nodes with that hash
	hits, fallbacks atomic.Uint64

	// The online region.
	slots                    [onlineSlots]atomic.Pointer[onlineEntry]
	onlineHits, onlineMisses atomic.Uint64

	ownerMu sync.Mutex
	model   *pomdp.POMDP // bound by the first UseFSC, with set; nil until then
	set     *bounds.Set
}

// onlineEntry is one memoised tree decision; it is never modified once
// stored.
type onlineEntry struct {
	gen  uint64
	hash uint64
	pi   pomdp.Belief
	d    Decision
}

// newFSC returns a store with no nodes for the given model dimensions and
// decision parameters.
func newFSC(states, actions, observations, depth int, beta float64, terminateAction int) *FSC {
	return &FSC{
		states:          states,
		actions:         actions,
		observations:    observations,
		depth:           depth,
		beta:            beta,
		terminateAction: terminateAction,
		index:           make(map[uint64][]int32),
	}
}

// NewFSC returns a store with no compiled nodes, for controllers over p that
// decide with cfg's Depth, Beta and TerminateAction (zero Depth and Beta
// meaning 1, as for NewBounded): only its online region answers.
func NewFSC(p *pomdp.POMDP, cfg BoundedConfig) *FSC {
	cfg = cfg.withDefaults()
	return newFSC(p.NumStates(), p.NumActions(), p.NumObservations(), cfg.Depth, cfg.Beta, cfg.TerminateAction)
}

// NumStates returns the state-space size the FSC was compiled over.
func (f *FSC) NumStates() int { return f.states }

// NumActions returns the action count of the compiled model.
func (f *FSC) NumActions() int { return f.actions }

// NumObservations returns the observation count of the compiled model.
func (f *FSC) NumObservations() int { return f.observations }

// Depth returns the Max-Avg expansion depth the compiler decided with.
func (f *FSC) Depth() int { return f.depth }

// Beta returns the discount factor the compiler decided with.
func (f *FSC) Beta() float64 { return f.beta }

// TerminateAction returns a_T's index, or −1 for recovery-notification
// models.
func (f *FSC) TerminateAction() int { return f.terminateAction }

// NumNodes returns the number of compiled nodes.
func (f *FSC) NumNodes() int { return len(f.nodes) }

// Node returns a copy of node i.
func (f *FSC) Node(i int) FSCNode { return f.nodes[i] }

// NumEdges counts the compiled (non-missing) edges.
func (f *FSC) NumEdges() int {
	total := 0
	for i := range f.nodes {
		for _, e := range f.nodes[i].Edges {
			if e >= 0 {
				total++
			}
		}
	}
	return total
}

// MissingEdges counts edges that lead off the compiled table: observations
// that are impossible under the node's belief or whose successor fell
// beyond the compile budget. A runtime belief reached across one is looked
// up by its bits like any other, and falls back when no node has them.
func (f *FSC) MissingEdges() int {
	missing := 0
	for i := range f.nodes {
		for _, e := range f.nodes[i].Edges {
			if e < 0 {
				missing++
			}
		}
	}
	return missing
}

// MaxGap returns the largest compile-time bound gap across non-terminating
// nodes — the threshold at which every compiled node would be served.
func (f *FSC) MaxGap() float64 {
	max := 0.0
	for i := range f.nodes {
		n := &f.nodes[i]
		if n.Terminate && f.terminateAction < 0 {
			continue
		}
		if n.Gap > max {
			max = n.Gap
		}
	}
	return max
}

// Hits returns the cumulative number of decisions served from compiled
// nodes by all controllers sharing this FSC.
func (f *FSC) Hits() uint64 { return f.hits.Load() }

// Fallbacks returns the cumulative number of decisions the compiled nodes
// did not serve, across all controllers sharing this FSC. A store with no
// compiled nodes counts none.
func (f *FSC) Fallbacks() uint64 { return f.fallbacks.Load() }

// OnlineHits returns how many beliefs the online region answered.
func (f *FSC) OnlineHits() uint64 { return f.onlineHits.Load() }

// OnlineMisses returns how many beliefs consulted the online region and
// went to the tree.
func (f *FSC) OnlineMisses() uint64 { return f.onlineMisses.Load() }

// findNode returns the index of the node whose belief has pi's bits, −1
// when no node has them; h is hashBelief(pi). The deterministic belief
// filter preserves this equivalence along compiled trajectories.
func (f *FSC) findNode(h uint64, pi pomdp.Belief) int32 {
	for _, i := range f.index[h] {
		if pomdp.SameBits(f.nodes[i].Belief, pi) {
			return i
		}
	}
	return -1
}

// addNode appends n, whose belief no node has yet, and indexes it.
func (f *FSC) addNode(n FSCNode) int32 {
	i := int32(len(f.nodes))
	f.nodes = append(f.nodes, n)
	h := hashBelief(n.Belief)
	f.index[h] = append(f.index[h], i)
	return i
}

// serves reports whether node n's compiled decision may be served under the
// given gap threshold. Certainty terminations (recovery notification) are
// always served: they depend only on the belief itself, never on bound
// quality, so replaying them is exact at any threshold.
func (f *FSC) serves(n *FSCNode, gapThreshold float64) bool {
	return (n.Terminate && f.terminateAction < 0) || n.Gap <= gapThreshold
}

// bucket returns the two online slots a belief whose hashBelief is h may
// occupy.
func (f *FSC) bucket(h uint64) *[2]atomic.Pointer[onlineEntry] {
	i := 2 * (h >> (64 - bucketBits))
	return (*[2]atomic.Pointer[onlineEntry])(f.slots[i : i+2])
}

// recall returns the online region's decision for pi (whose hashBelief is
// h) at set generation gen.
func (f *FSC) recall(gen, h uint64, pi pomdp.Belief) (Decision, bool) {
	b := f.bucket(h)
	for i := range b {
		if e := b[i].Load(); e != nil && e.gen == gen && e.hash == h && pomdp.SameBits(e.pi, pi) {
			return e.d, true
		}
	}
	return Decision{}, false
}

// remember stores d as the online decision for a copy of pi at generation
// gen, in an empty or stale slot of its bucket if there is one and in the
// slot named by the hash's low bit otherwise. The caller holds the set's
// Mutex, so the set is at generation gen throughout.
func (f *FSC) remember(gen, h uint64, pi pomdp.Belief, d Decision) {
	if _, ok := f.recall(gen, h, pi); ok {
		return // a duplicate within the batch
	}
	b := f.bucket(h)
	victim := &b[h&1]
	for i := range b {
		if e := b[i].Load(); e == nil || e.gen != gen {
			victim = &b[i]
			break
		}
	}
	victim.Store(&onlineEntry{gen: gen, hash: h, pi: pi.Clone(), d: d})
}

// UseFSC attaches the store f to b. DecideBatch answers a belief from a
// compiled node with its exact bits whose compile-time gap is at most
// gapThreshold, and counts it as a hit of f; every other belief is a
// fallback of f and goes on to certainty termination, f's online region and
// the tree. A node hit takes no set lock and runs no online update or
// consistency audit, so compiled nodes are served unchanged while the set
// improves. Gap threshold zero serves only nodes whose bound was already
// tight at compile time.
//
// The online region is consulted only on the read-only path: not with
// ImproveOnline, CheckConsistency or CollectStats, and not while the set has
// a capacity, which is checked on every call because least-used eviction
// must see every leaf use and a hit expands nothing. Its answers are tree
// decisions (TierTree), counted by OnlineHits.
//
// Both regions are exact. Because the compiler decides through the same
// tree and the runtime filter shares its belief-update kernel, a node's
// decision is the exact Decision the tree made at the same belief over the
// same set at compile time: the compiled nodes are an amortization, never an
// approximation, as long as the set is not mutated after compilation
// (ImproveOnline weakens this to "both are valid bounded decisions"). The
// online region answers only at the generation its entries were decided at.
//
// It fails when f was built for other model dimensions, another depth,
// discount or terminate action, or when gapThreshold is negative or NaN. The
// first controller it accepts binds f to its model and bound set, and it
// refuses controllers over any other.
func (b *Bounded) UseFSC(f *FSC, gapThreshold float64) error {
	if f == nil {
		return fmt.Errorf("controller: nil FSC")
	}
	p := b.p
	if f.states != p.NumStates() || f.actions != p.NumActions() || f.observations != p.NumObservations() {
		return fmt.Errorf("controller: fsc compiled for %d states/%d actions/%d observations, model has %d/%d/%d",
			f.states, f.actions, f.observations, p.NumStates(), p.NumActions(), p.NumObservations())
	}
	if f.terminateAction != b.cfg.TerminateAction {
		return fmt.Errorf("controller: fsc terminate action %d, controller uses %d",
			f.terminateAction, b.cfg.TerminateAction)
	}
	if f.depth != b.cfg.Depth {
		return fmt.Errorf("controller: fsc decides at depth %d, controller at depth %d", f.depth, b.cfg.Depth)
	}
	if f.beta != b.cfg.Beta {
		return fmt.Errorf("controller: fsc discount %v, controller uses %v", f.beta, b.cfg.Beta)
	}
	if gapThreshold < 0 {
		return fmt.Errorf("controller: negative fsc gap threshold %v", gapThreshold)
	}
	if math.IsNaN(gapThreshold) {
		return fmt.Errorf("controller: NaN fsc gap threshold")
	}
	f.ownerMu.Lock()
	defer f.ownerMu.Unlock()
	if f.model == nil {
		f.model, f.set = b.p, b.set
	} else if f.model != b.p || f.set != b.set {
		return fmt.Errorf("controller: fsc serves controllers over another model or bound set")
	}
	b.fsc, b.fscGap = f, gapThreshold
	return nil
}

// serveFrozen answers from the compiled nodes every belief of pis that sits
// on a servable node, writing its decision to out and marking its position
// in frozenHit, and counts the batch's hits and fallbacks. It returns the
// number of hits, zero without compiled nodes. It reads each belief's hash
// from batchHash and takes no set lock, except the read lock of fscStats.
func (b *Bounded) serveFrozen(pis []pomdp.Belief, out []Decision) int {
	if b.fsc == nil || len(b.fsc.nodes) == 0 {
		return 0
	}
	b.frozenHit = slices.Grow(b.frozenHit[:0], len(pis))[:len(pis)]
	hits := 0
	for j, pi := range pis {
		b.frozenHit[j] = false
		i := b.fsc.findNode(b.batchHash[j], pi)
		if i < 0 || !b.fsc.serves(&b.fsc.nodes[i], b.fscGap) {
			continue
		}
		n := &b.fsc.nodes[i]
		out[j] = n.decision()
		b.frozenHit[j] = true
		hits++
		if b.cfg.CollectStats {
			b.batchStats[j] = b.fscStats(n, pi)
		}
	}
	if hits > 0 {
		b.fsc.hits.Add(uint64(hits))
	}
	if misses := len(pis) - hits; misses > 0 {
		b.fsc.fallbacks.Add(uint64(misses))
	}
	return hits
}

// servedFrozen reports whether batch position j of the current DecideBatch
// call was answered by a compiled node.
func (b *Bounded) servedFrozen(j int) bool { return j < len(b.frozenHit) && b.frozenHit[j] }

// online returns the attached store when the current call may use its
// online region. The caller holds the set's Mutex.
func (b *Bounded) online() *FSC {
	if b.fsc == nil || b.updater != nil || b.cfg.CheckConsistency || b.cfg.CollectStats || b.set.Capacity() > 0 {
		return nil
	}
	return b.fsc
}

// fscStats builds the DecisionStats of a node-served decision: the
// compile-time bound explanation (LeafBound = Value − Gap as recorded by the
// compiler), live belief entropy, a live bound-set snapshot, and zero
// expansion work — serving a compiled node expands nothing.
func (b *Bounded) fscStats(n *FSCNode, pi pomdp.Belief) DecisionStats {
	mu := b.set.Mutex()
	mu.RLock()
	size := b.set.Size()
	mu.RUnlock()
	st := DecisionStats{
		Action:        n.Action,
		Terminate:     n.Terminate,
		Value:         n.Value,
		LeafBound:     n.Value - n.Gap,
		BoundGap:      n.Gap,
		BeliefEntropy: pi.Entropy(),
		SetSize:       size,
		SetEvictions:  b.set.Evictions(),
		Tier:          TierFSC,
	}
	if n.Terminate && b.fsc.terminateAction < 0 {
		// Certainty termination has no model action behind it.
		st.Action = -1
	}
	return st
}
