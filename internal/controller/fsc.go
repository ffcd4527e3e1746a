package controller

import (
	"fmt"
	"math"
	"sync/atomic"

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

// FSC is a compiled finite-state controller: a read-only node table indexed
// by exact belief bits, extracted offline from the bounded controller by
// CompileFSC. One FSC is shared by any number of Bounded controllers (see
// UseFSC); only the atomic hit/fallback counters mutate after construction,
// so concurrent controllers need no locking.
type FSC struct {
	states          int
	actions         int
	observations    int
	depth           int
	beta            float64
	terminateAction int

	nodes []FSCNode
	index map[uint64][]int32 // hashBelief of a node's belief → the nodes with that hash

	hits      atomic.Uint64
	fallbacks atomic.Uint64
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

// Hits returns the cumulative number of decisions served from the table by
// all controllers sharing this FSC.
func (f *FSC) Hits() uint64 { return f.hits.Load() }

// Fallbacks returns the cumulative number of decisions the table did not
// serve, across all controllers sharing this FSC.
func (f *FSC) Fallbacks() uint64 { return f.fallbacks.Load() }

// lookup returns the index of the node whose belief has pi's bits, −1 when
// no node has them. Nodes are keyed by hashBelief and matched by
// pomdp.SameBits, the equivalence the engine's belief merging and the
// decision table use, and the one the deterministic belief filter preserves
// along compiled trajectories.
func (f *FSC) lookup(pi pomdp.Belief) int32 {
	for _, i := range f.index[hashBelief(pi)] {
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

// UseFSC puts the compiled controller f in front of b's other tiers:
// DecideBatch answers a belief that has a node's exact bits, at a node whose
// compile-time gap is at most gapThreshold, with the node's decision, and
// counts it as a hit of f; every other belief is a fallback of f and goes on
// to certainty termination, the decision table and the tree. A hit takes no
// set lock and runs no online update or consistency audit, so FSC nodes are
// served unchanged while the set improves.
//
// Because the compiler decides through the same tree and the runtime filter
// shares its belief-update kernel, a served decision is the exact Decision
// the tree made at the same belief over the same set at compile time: the
// FSC is an amortization, never an approximation, as long as the set is not
// mutated after compilation (ImproveOnline weakens this to "both tiers are
// valid bounded decisions"). Gap threshold zero serves only nodes whose
// bound was already tight at compile time.
//
// It fails when f was compiled for other model dimensions or another
// terminate action, or when gapThreshold is negative or NaN.
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
	if gapThreshold < 0 {
		return fmt.Errorf("controller: negative fsc gap threshold %v", gapThreshold)
	}
	if math.IsNaN(gapThreshold) {
		return fmt.Errorf("controller: NaN fsc gap threshold")
	}
	b.fsc, b.fscGap = f, gapThreshold
	return nil
}

// serveFSC answers from the attached FSC every belief of pis that sits on a
// servable node, writing its decision to out and marking its position in
// fscHit, and counts the batch's hits and fallbacks. It returns the number
// of hits, zero without an FSC. It takes no set lock, except the read lock
// of fscStats.
func (b *Bounded) serveFSC(pis []pomdp.Belief, out []Decision) int {
	if b.fsc == nil {
		return 0
	}
	if cap(b.fscHit) < len(pis) {
		b.fscHit = make([]bool, len(pis))
	}
	b.fscHit = b.fscHit[:len(pis)]
	hits := 0
	for j, pi := range pis {
		b.fscHit[j] = false
		i := b.fsc.lookup(pi)
		if i < 0 || !b.fsc.serves(&b.fsc.nodes[i], b.fscGap) {
			continue
		}
		n := &b.fsc.nodes[i]
		out[j] = n.decision()
		b.fscHit[j] = true
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

// servedFSC reports whether batch position j of the current DecideBatch call
// was answered by the FSC.
func (b *Bounded) servedFSC(j int) bool { return b.fsc != nil && b.fscHit[j] }

// fscStats builds the DecisionStats of an FSC-served decision: the
// compile-time bound explanation (LeafBound = Value − Gap as recorded by the
// compiler), live belief entropy, a live bound-set snapshot, and zero
// expansion work — serving from the FSC expands nothing.
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
