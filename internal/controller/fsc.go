package controller

import (
	"encoding/binary"
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
// by bit-exact belief keys, extracted offline from the bounded controller by
// CompileFSC. One FSC is shared by any number of FSCDeciders; only the
// atomic hit/fallback counters mutate after construction, so concurrent
// deciders need no locking.
type FSC struct {
	states          int
	actions         int
	observations    int
	depth           int
	beta            float64
	terminateAction int

	nodes []FSCNode
	index map[string]int32

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
// beyond the compile budget. Runtime trajectories crossing one detach and
// re-attach (or fall back) by belief key.
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
// all deciders sharing this FSC.
func (f *FSC) Hits() uint64 { return f.hits.Load() }

// Fallbacks returns the cumulative number of decisions that fell back to
// the Max-Avg tree across all deciders sharing this FSC.
func (f *FSC) Fallbacks() uint64 { return f.fallbacks.Load() }

// appendBeliefKey appends the bit-exact lookup key of pi to dst: the
// little-endian IEEE-754 bits of each coordinate. Two beliefs share a key
// iff they are bit-identical, which is exactly the equivalence the
// deterministic belief filter preserves along compiled trajectories.
func appendBeliefKey(dst []byte, pi pomdp.Belief) []byte {
	for _, x := range pi {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

// lookup returns the node index for a belief key, −1 when absent. The
// string conversion in the map read does not allocate.
func (f *FSC) lookup(key []byte) int32 {
	if i, ok := f.index[string(key)]; ok {
		return i
	}
	return -1
}

// buildIndex (re)builds the belief-key index, failing on duplicate beliefs
// — a compiled table must be a function from belief to decision.
func (f *FSC) buildIndex() error {
	f.index = make(map[string]int32, len(f.nodes))
	var buf []byte
	for i := range f.nodes {
		buf = appendBeliefKey(buf[:0], f.nodes[i].Belief)
		if j, ok := f.index[string(buf)]; ok {
			return fmt.Errorf("controller: fsc nodes %d and %d share a belief", j, i)
		}
		f.index[string(buf)] = int32(i)
	}
	return nil
}

// serves reports whether node n's compiled decision may be served under the
// given gap threshold. Certainty terminations (recovery notification) are
// always served: they depend only on the belief itself, never on bound
// quality, so replaying them is exact at any threshold.
func (f *FSC) serves(n *FSCNode, gapThreshold float64) bool {
	return (n.Terminate && f.terminateAction < 0) || n.Gap <= gapThreshold
}

// FSCDeciderConfig configures the runtime tier over a compiled FSC.
type FSCDeciderConfig struct {
	// GapThreshold is the largest compile-time bound gap at which a node's
	// stored decision is served from the table; beliefs attached to wider
	// nodes (or to no node at all) fall back to the Max-Avg tree. Zero is
	// the strictest setting — only nodes whose bound was already tight at
	// compile time are served, and served decisions are bit-identical to
	// the tree's by construction.
	GapThreshold float64
	// CollectStats records per-decision DecisionStats for both tiers. The
	// fallback controller must collect stats too.
	CollectStats bool
}

// FSCDecider is the tiered runtime decider: decisions at beliefs present in
// the compiled table (with an acceptable compile-time gap) are served as a
// table lookup; everything else falls back to the full Max-Avg tree.
//
// Because the compiler and the runtime filter share one deterministic
// belief-update kernel, a served decision is the exact Decision the
// fallback tree produced at the same belief over the same bound set at
// compile time — the table is an amortization, never an approximation, as
// long as the bound set is not mutated after compilation (ImproveOnline on
// the fallback weakens this to "both tiers are valid bounded decisions").
type FSCDecider struct {
	BeliefFilter
	fsc      *FSC
	fallback *Bounded
	cfg      FSCDeciderConfig

	// node is the table node the tracked episode belief is attached to, −1
	// when the belief left the compiled graph.
	node   int32
	keyBuf []byte

	// DecideBatch scratch, reused across calls.
	fbIdx []int
	fbPis []pomdp.Belief
	fbOut []Decision

	// Stats scratch, populated only with cfg.CollectStats.
	lastStats  DecisionStats
	batchStats []DecisionStats

	// lastTier records which tier served the latest Decide — always, not
	// just under CollectStats; it is one constant string store.
	lastTier string
}

var (
	_ Controller       = (*FSCDecider)(nil)
	_ BatchDecider     = (*FSCDecider)(nil)
	_ BatchStatsSource = (*FSCDecider)(nil)
	_ TierSource       = (*FSCDecider)(nil)
)

// NewFSCDecider builds the tiered decider over a compiled FSC with the
// given tree fallback. The fallback's model must match the FSC's dimensions
// and terminate action; with CollectStats the fallback must collect stats
// as well, so fallback decisions keep their bound-gap telemetry.
func NewFSCDecider(fsc *FSC, fallback *Bounded, cfg FSCDeciderConfig) (*FSCDecider, error) {
	if fsc == nil {
		return nil, fmt.Errorf("controller: nil FSC")
	}
	if fallback == nil {
		return nil, fmt.Errorf("controller: FSC decider needs a tree fallback")
	}
	p := fallback.Model()
	if fsc.states != p.NumStates() || fsc.actions != p.NumActions() || fsc.observations != p.NumObservations() {
		return nil, fmt.Errorf("controller: fsc compiled for %d states/%d actions/%d observations, model has %d/%d/%d",
			fsc.states, fsc.actions, fsc.observations, p.NumStates(), p.NumActions(), p.NumObservations())
	}
	if fsc.terminateAction != fallback.cfg.TerminateAction {
		return nil, fmt.Errorf("controller: fsc terminate action %d, fallback uses %d",
			fsc.terminateAction, fallback.cfg.TerminateAction)
	}
	if cfg.GapThreshold < 0 {
		return nil, fmt.Errorf("controller: negative fsc gap threshold %v", cfg.GapThreshold)
	}
	if math.IsNaN(cfg.GapThreshold) {
		return nil, fmt.Errorf("controller: NaN fsc gap threshold")
	}
	if cfg.CollectStats && !fallback.cfg.CollectStats {
		return nil, fmt.Errorf("controller: fsc decider collects stats but its fallback does not")
	}
	return &FSCDecider{
		BeliefFilter: NewBeliefFilter(p, nil),
		fsc:          fsc,
		fallback:     fallback,
		cfg:          cfg,
		node:         -1,
	}, nil
}

// Name implements Controller.
func (d *FSCDecider) Name() string {
	return fmt.Sprintf("fsc(%d nodes, gap<=%g)+%s", len(d.fsc.nodes), d.cfg.GapThreshold, d.fallback.Name())
}

// FSC returns the shared compiled table.
func (d *FSCDecider) FSC() *FSC { return d.fsc }

// Fallback returns the tree controller serving the slow tier.
func (d *FSCDecider) Fallback() *Bounded { return d.fallback }

// Model returns the (transformed) POMDP the decider decides over; the
// campaign engine's batched stepping mode uses it to run per-episode belief
// filters over the same state space.
func (d *FSCDecider) Model() *pomdp.POMDP { return d.p }

// Reset implements Controller.
func (d *FSCDecider) Reset(initial pomdp.Belief) error {
	if err := d.BeliefFilter.Reset(initial); err != nil {
		return err
	}
	d.node = d.attach(d.belief)
	return nil
}

// attach finds the table node whose belief is bit-identical to pi, −1 when
// the belief is off the compiled graph.
func (d *FSCDecider) attach(pi pomdp.Belief) int32 {
	d.keyBuf = appendBeliefKey(d.keyBuf[:0], pi)
	return d.fsc.lookup(d.keyBuf)
}

// Observe implements Controller: it advances the Bayes filter and tracks
// the compiled graph alongside it — following the node's edge when the
// executed action matches the node's edge action, re-attaching by belief
// key otherwise. Edge targets are verified against the live belief, so a
// stale or hand-edited artifact degrades to fallback instead of replaying a
// wrong trajectory.
func (d *FSCDecider) Observe(action, obs int) error {
	if err := d.BeliefFilter.Observe(action, obs); err != nil {
		return err
	}
	next := int32(-1)
	if d.node >= 0 {
		n := &d.fsc.nodes[d.node]
		if action == n.EdgeAction && obs < len(n.Edges) {
			next = n.Edges[obs]
			if next >= 0 && !pomdp.SameBits(d.fsc.nodes[next].Belief, d.belief) {
				next = -1
			}
		}
	}
	if next < 0 {
		next = d.attach(d.belief)
	}
	d.node = next
	return nil
}

// Decide implements Controller: a table lookup when the tracked belief sits
// on a servable compiled node, one Max-Avg tree expansion otherwise. Both
// paths emit DecisionStats (with tier attribution) when configured.
func (d *FSCDecider) Decide() (Decision, error) {
	if d.belief == nil {
		return Decision{}, ErrNotReset
	}
	if d.node >= 0 {
		n := &d.fsc.nodes[d.node]
		if d.fsc.serves(n, d.cfg.GapThreshold) {
			d.fsc.hits.Add(1)
			d.lastTier = TierFSC
			if d.cfg.CollectStats {
				d.lastStats = d.fscStats(n, d.belief)
			}
			return n.decision(), nil
		}
	}
	d.fsc.fallbacks.Add(1)
	d.lastTier = TierTree
	dec, err := d.fallback.decideOne(d.belief)
	if err != nil {
		return Decision{}, err
	}
	if d.cfg.CollectStats {
		d.lastStats = d.fallback.BatchDecisionStats()[0]
	}
	return dec, nil
}

// fscStats builds the DecisionStats of a table-served decision: the
// compile-time bound explanation (LeafBound = Value − Gap as recorded by
// the compiler), live belief entropy, a live bound-set snapshot, and zero
// expansion work — serving from the table expands nothing.
func (d *FSCDecider) fscStats(n *FSCNode, pi pomdp.Belief) DecisionStats {
	mu := d.fallback.set.Mutex()
	mu.RLock()
	size := d.fallback.set.Size()
	mu.RUnlock()
	st := DecisionStats{
		Action:        n.Action,
		Terminate:     n.Terminate,
		Value:         n.Value,
		LeafBound:     n.Value - n.Gap,
		BoundGap:      n.Gap,
		BeliefEntropy: pi.Entropy(),
		SetSize:       size,
		SetEvictions:  d.fallback.set.Evictions(),
		Tier:          TierFSC,
	}
	if n.Terminate && d.fsc.terminateAction < 0 {
		// Certainty termination has no model action behind it.
		st.Action = -1
	}
	return st
}

// StatsEnabled implements StatsSource.
func (d *FSCDecider) StatsEnabled() bool { return d.cfg.CollectStats }

// LastTier implements TierSource: TierFSC after a table hit, TierTree after
// a fallback; empty before the first Decide.
func (d *FSCDecider) LastTier() string { return d.lastTier }

// DecisionStats implements StatsSource: the stats of the most recent
// Decide. Valid until the next decision call; only meaningful with
// CollectStats.
func (d *FSCDecider) DecisionStats() DecisionStats { return d.lastStats }

// BatchDecisionStats implements BatchStatsSource: per-belief stats of the
// most recent DecideBatch, indexed like its pis argument. Valid until the
// next decision call; only meaningful with CollectStats.
func (d *FSCDecider) BatchDecisionStats() []DecisionStats { return d.batchStats }

// DecideBatch implements BatchDecider: every belief found in the table on a
// servable node is answered in place; the misses share one batched tree
// expansion through the fallback. Like the fallback's own DecideBatch,
// results are bit-identical to per-belief Decide calls.
func (d *FSCDecider) DecideBatch(pis []pomdp.Belief, out []Decision) error {
	if len(out) < len(pis) {
		return fmt.Errorf("controller: batch decision buffer length %d < %d beliefs", len(out), len(pis))
	}
	collect := d.cfg.CollectStats
	if collect {
		if cap(d.batchStats) < len(pis) {
			d.batchStats = make([]DecisionStats, len(pis))
		}
		d.batchStats = d.batchStats[:len(pis)]
	}
	d.fbIdx = d.fbIdx[:0]
	d.fbPis = d.fbPis[:0]
	var hits uint64
	for j, pi := range pis {
		if len(pi) == d.fsc.states {
			if i := d.attach(pi); i >= 0 {
				n := &d.fsc.nodes[i]
				if d.fsc.serves(n, d.cfg.GapThreshold) {
					out[j] = n.decision()
					hits++
					if collect {
						d.batchStats[j] = d.fscStats(n, pi)
					}
					continue
				}
			}
		}
		d.fbIdx = append(d.fbIdx, j)
		d.fbPis = append(d.fbPis, pi)
	}
	if hits > 0 {
		d.fsc.hits.Add(hits)
	}
	if len(d.fbIdx) == 0 {
		return nil
	}
	d.fsc.fallbacks.Add(uint64(len(d.fbIdx)))
	if cap(d.fbOut) < len(d.fbIdx) {
		d.fbOut = make([]Decision, len(d.fbIdx))
	}
	d.fbOut = d.fbOut[:len(d.fbIdx)]
	if err := d.fallback.DecideBatch(d.fbPis, d.fbOut); err != nil {
		return err
	}
	for k, j := range d.fbIdx {
		out[j] = d.fbOut[k]
	}
	if collect {
		// Fallback stats already carry TierTree and alias the fallback's
		// root backups, which stay valid until this decider's next call.
		fst := d.fallback.BatchDecisionStats()
		for k, j := range d.fbIdx {
			d.batchStats[j] = fst[k]
		}
	}
	return nil
}
