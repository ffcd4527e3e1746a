package controller

import (
	"fmt"
	"slices"

	"bpomdp/internal/bounds"
	"bpomdp/internal/pomdp"
)

// BoundedConfig configures a bounded controller.
type BoundedConfig struct {
	// Depth is the Max-Avg tree expansion depth (≥ 1). The paper's
	// evaluation uses depth 1 for the bounded controller.
	Depth int
	// Beta is the discount factor; zero means 1 (undiscounted).
	Beta float64
	// TerminateAction is the index of a_T in the model, or -1 when the
	// system has recovery notification and the model has no terminate
	// action.
	TerminateAction int
	// NullStates is Sφ. With recovery notification (TerminateAction < 0)
	// the controller terminates once the belief is certain the system is in
	// Sφ; it is also used for diagnostics.
	NullStates []int
	// ImproveOnline, when true, runs one incremental bound update at every
	// belief the controller visits during real recovery ("those
	// belief-states that are naturally generated during the course of
	// system recovery", §4.1).
	ImproveOnline bool
	// CheckConsistency, when true, verifies Property 1(b) (V_B ≤ L_p V_B)
	// at every visited belief and fails loudly on violation. Intended for
	// tests and audits; adds one extra backup per step.
	CheckConsistency bool
	// CollectStats, when true, makes the controller record DecisionStats for
	// every decision (exposed through the StatsSource / BatchStatsSource
	// interfaces). Off by default: the stats path costs one extra bound
	// evaluation (Set.Peek) plus an entropy pass per decision, and the
	// controller guarantees the decision path is unchanged when it is off.
	CollectStats bool
}

// withDefaults returns c with a zero Depth or Beta replaced by 1.
func (c BoundedConfig) withDefaults() BoundedConfig {
	if c.Depth == 0 {
		c.Depth = 1
	}
	if c.Beta == 0 {
		c.Beta = 1
	}
	return c
}

// Bounded is the paper's bounded recovery controller: a finite-depth
// Max-Avg expansion with a lower-bound hyperplane set at the leaves. With
// Property 1's preconditions (no free actions; V_B ≤ L_p V_B) it terminates
// with probability 1 and its expected cost is bounded by the bound itself.
type Bounded struct {
	BeliefFilter
	cfg     BoundedConfig
	engine  *Engine
	set     *bounds.Set
	updater *bounds.Updater
	nullSet []int
	fsc     *FSC    // see UseFSC; nil when none is attached
	fscGap  float64 // UseFSC's gap threshold

	one    [1]pomdp.Belief // decideOne's one-belief batch
	oneOut [1]Decision

	// DecideBatch scratch, reused across calls.
	batchIdx  []int
	batchPis  []pomdp.Belief
	batchHash []uint64             // per batch position: hashBelief, with an FSC attached
	batchRes  []pomdp.BackupResult // root backups; a run decided from batch position j writes from j on
	frozenHit []bool               // per batch position: answered by a compiled node

	// Per-belief stats of the last decision call, indexed by batch
	// position; populated only with cfg.CollectStats. Their QValues alias
	// batchRes.
	batchStats []DecisionStats
}

var (
	_ Controller       = (*Bounded)(nil)
	_ BatchDecider     = (*Bounded)(nil)
	_ TierSource       = (*Bounded)(nil)
	_ BatchStatsSource = (*Bounded)(nil)
)

// NewBounded builds a bounded controller over the (already transformed)
// model p using the hyperplane set as the leaf bound. The set is used (and,
// with ImproveOnline, refined) in place — share it with a Bootstrapper to
// reuse bootstrap improvements.
func NewBounded(p *pomdp.POMDP, set *bounds.Set, cfg BoundedConfig) (*Bounded, error) {
	cfg = cfg.withDefaults()
	if set == nil {
		return nil, fmt.Errorf("controller: bounded controller needs a non-empty bound set (compute the RA-Bound first)")
	}
	// Controllers already deciding over the set may be improving it.
	set.Mutex().RLock()
	defer set.Mutex().RUnlock()
	if set.Size() == 0 {
		return nil, fmt.Errorf("controller: bounded controller needs a non-empty bound set (compute the RA-Bound first)")
	}
	if set.NumStates() != p.NumStates() {
		return nil, fmt.Errorf("controller: bound set over %d states, model has %d", set.NumStates(), p.NumStates())
	}
	if cfg.TerminateAction >= p.NumActions() {
		return nil, fmt.Errorf("controller: terminate action %d out of range", cfg.TerminateAction)
	}
	if cfg.TerminateAction < 0 && len(cfg.NullStates) == 0 {
		return nil, fmt.Errorf("controller: recovery-notification regime needs NullStates to detect completion")
	}
	// The set is passed directly (it implements pomdp.BatchValueFn), so the
	// engine's batched expansion can evaluate whole leaf frontiers with one
	// pass over the hyperplane slab.
	engine, err := NewEngine(p, cfg.Depth, cfg.Beta, set)
	if err != nil {
		return nil, err
	}
	b := &Bounded{
		BeliefFilter: NewBeliefFilter(p, nil),
		cfg:          cfg,
		engine:       engine,
		set:          set,
		nullSet:      pomdp.SortedStates(cfg.NullStates),
	}
	if cfg.ImproveOnline {
		u, err := bounds.NewUpdater(p, set, bounds.Options{Beta: cfg.Beta})
		if err != nil {
			return nil, err
		}
		b.updater = u
	}
	return b, nil
}

// Name implements Controller.
func (b *Bounded) Name() string {
	name := fmt.Sprintf("bounded(depth=%d)", b.cfg.Depth)
	if b.fsc != nil && len(b.fsc.nodes) > 0 {
		return fmt.Sprintf("fsc(%d nodes, gap<=%g)+%s", len(b.fsc.nodes), b.fscGap, name)
	}
	return name
}

// Set returns the hyperplane set used at the leaves.
func (b *Bounded) Set() *bounds.Set { return b.set }

// Model returns the (transformed) POMDP the controller decides over. The
// campaign engine's batched stepping mode uses it to track per-episode
// beliefs over the same state space the decider expects — which is larger
// than the simulated base model whenever the Section 3.1 transforms appended
// termination states.
func (b *Bounded) Model() *pomdp.POMDP { return b.p }

// Decide implements Controller. It expands the Max-Avg tree at the current
// belief and returns the maximizing action; choosing a_T (or, with recovery
// notification, certainty of Sφ) terminates the episode. It is DecideBatch
// on a one-belief batch of the tracked belief.
func (b *Bounded) Decide() (Decision, error) {
	if b.belief == nil {
		return Decision{}, ErrNotReset
	}
	return b.decideOne(b.belief)
}

// decideOne is DecideBatch on the one-belief batch {pi}; its stats are
// entry 0 of BatchDecisionStats.
func (b *Bounded) decideOne(pi pomdp.Belief) (Decision, error) {
	b.one[0] = pi
	err := b.DecideBatch(b.one[:], b.oneOut[:])
	b.one[0] = nil
	if err != nil {
		return Decision{}, err
	}
	return b.oneOut[0], nil
}

// certainty is the belief mass at which the recovery-notification regime
// considers the system certainly recovered.
const certainty = 1 - 1e-9

// statsFor builds the engine-counter-independent part of a DecisionStats:
// the bound explanation (LeafBound via Set.Peek so reading it cannot perturb
// least-used eviction, and the Property 1(b) slack BoundGap), the belief
// entropy, and the bound-set snapshot. q, when non-nil, is aliased directly.
func (b *Bounded) statsFor(pi pomdp.Belief, d Decision, q []float64) DecisionStats {
	leaf := b.set.Peek(pi)
	st := DecisionStats{
		Action:        d.Action,
		Terminate:     d.Terminate,
		Value:         d.Value,
		QValues:       q,
		LeafBound:     leaf,
		BoundGap:      d.Value - leaf,
		BeliefEntropy: pi.Entropy(),
		SetSize:       b.set.Size(),
		SetEvictions:  b.set.Evictions(),
		Tier:          TierTree,
	}
	if d.Terminate && b.cfg.TerminateAction < 0 {
		// Certainty termination has no model action behind it.
		st.Action = -1
	}
	return st
}

// StatsEnabled implements StatsSource.
func (b *Bounded) StatsEnabled() bool { return b.cfg.CollectStats }

// LastTier implements TierSource: TierFSC when a compiled node of the
// attached FSC answered entry 0 of the last decision call (the most recent
// Decide), TierTree otherwise, its online region included.
func (b *Bounded) LastTier() string {
	if b.servedFrozen(0) {
		return TierFSC
	}
	return TierTree
}

// DecisionStats implements StatsSource: the stats of the most recent Decide
// (entry 0 of the last decision call). Valid until the next decision call;
// only meaningful with CollectStats.
func (b *Bounded) DecisionStats() DecisionStats {
	if len(b.batchStats) == 0 {
		return DecisionStats{}
	}
	return b.batchStats[0]
}

// BatchDecisionStats implements BatchStatsSource: per-belief stats of the
// most recent DecideBatch, indexed like its pis argument. Valid until the
// next decision call; only meaningful with CollectStats.
func (b *Bounded) BatchDecisionStats() []DecisionStats { return b.batchStats }

// toDecision converts a root backup into a Decision, applying the a_T
// tie-break: Property 1(a) demands no free actions outside s_T, but real
// models often have a zero-cost passive action at the Sφ vertex (monitoring
// a healthy system drops no requests). At that vertex Q(a_T) ties the
// maximum and a plain argmax can loop on the free action forever;
// terminating on a tie costs nothing by the controller's own estimate and
// restores the termination guarantee.
func (b *Bounded) toDecision(res *pomdp.BackupResult) Decision {
	d := Decision{Action: res.Action, Value: res.Value}
	if aT := b.cfg.TerminateAction; aT >= 0 && (res.Action == aT || res.QValues[aT] >= res.Value-1e-9) {
		d.Action = aT
		d.Terminate = true
	}
	return d
}

// DecideBatch implements BatchDecider: it decides for every belief in pis
// independently of the tracked episode belief, writing Decision j into
// out[j]. It is the controller's one decision path — Decide and the FSC
// compiler come through it too. Its tiers answer in order: compiled nodes
// of an attached FSC (see UseFSC), certainty termination (recovery
// notification), the FSC's online region, and one batched tree expansion
// shared by the rest, with results bit-identical to deciding each belief
// alone. Every belief's length is checked before any tier answers, and
// each belief is hashed once for both regions.
//
// With ImproveOnline or CheckConsistency configured it decides the beliefs
// the compiled nodes left in chunks of one, in batch order: both mutate or
// audit the shared bound set before each belief's own expansion, and a
// batched expansion would observe a different set than that order does.
//
// Past the compiled nodes the call holds the set's Mutex, for writing with
// ImproveOnline and for reading otherwise, so controllers sharing the set
// may decide from several goroutines.
func (b *Bounded) DecideBatch(pis []pomdp.Belief, out []Decision) error {
	b.frozenHit = b.frozenHit[:0]
	if len(out) < len(pis) {
		return fmt.Errorf("controller: batch decision buffer length %d < %d beliefs", len(out), len(pis))
	}
	n := b.p.NumStates()
	for j, pi := range pis {
		if len(pi) != n {
			return fmt.Errorf("controller: batch belief %d length %d, want %d", j, len(pi), n)
		}
	}
	if b.cfg.CollectStats {
		if cap(b.batchStats) < len(pis) {
			b.batchStats = make([]DecisionStats, len(pis))
		}
		b.batchStats = b.batchStats[:len(pis)]
	}
	if b.fsc != nil {
		b.batchHash = slices.Grow(b.batchHash[:0], len(pis))[:len(pis)]
		for j, pi := range pis {
			b.batchHash[j] = hashBelief(pi)
		}
	}
	if b.serveFrozen(pis, out) == len(pis) {
		return nil
	}
	mu := b.set.Mutex()
	if b.updater != nil {
		mu.Lock()
		defer mu.Unlock()
	} else {
		mu.RLock()
		defer mu.RUnlock()
	}
	// Grow the result buffer while keeping the QValues slices already
	// allocated in earlier calls, so the steady state allocates nothing.
	if cap(b.batchRes) < len(pis) {
		grown := make([]pomdp.BackupResult, len(pis))
		copy(grown, b.batchRes[:cap(b.batchRes)])
		b.batchRes = grown
	}
	b.batchRes = b.batchRes[:len(pis)]
	if b.updater == nil && !b.cfg.CheckConsistency {
		return b.decide(pis, out, 0)
	}
	for j, pi := range pis {
		if b.servedFrozen(j) {
			continue
		}
		if err := b.prepare(pi); err != nil {
			return err
		}
		if err := b.decide(pis[j:j+1], out[j:j+1], j); err != nil {
			return err
		}
	}
	return nil
}

// prepare runs the per-belief work that precedes a belief's expansion: the
// Property 1(b) audit and the online bound update.
func (b *Bounded) prepare(pi pomdp.Belief) error {
	if b.cfg.CheckConsistency {
		rep, err := bounds.CheckConsistency(b.p, b.sc, b.set, pi, bounds.Options{Beta: b.cfg.Beta})
		if err != nil {
			return err
		}
		if !rep.OK {
			return fmt.Errorf("controller: Property 1(b) violated at belief %v: V_B=%v > L_pV_B=%v",
				pi, rep.Bound, rep.Backup)
		}
	}
	if b.updater != nil {
		if _, err := b.updater.UpdateAt(pi); err != nil {
			return fmt.Errorf("controller: online bound update: %w", err)
		}
	}
	return nil
}

// decide answers pis, the beliefs at batch positions off, off+1, … of the
// current DecideBatch call that no compiled node did: by certainty
// termination, from the FSC's online region where it may be used and holds
// them, the rest with one shared tree expansion. Root backups land in
// batchRes from position off on, so the stats QValues of every position
// stay valid until the next call without copying.
func (b *Bounded) decide(pis []pomdp.Belief, out []Decision, off int) error {
	collect := b.cfg.CollectStats
	online := b.online()
	var gen, hits uint64
	if online != nil {
		gen = b.set.Generation()
	}
	b.batchIdx = b.batchIdx[:0]
	b.batchPis = b.batchPis[:0]
	for j, pi := range pis {
		if b.servedFrozen(off + j) {
			continue
		}
		// Recovery-notification regime: stop as soon as the belief
		// certifies Sφ.
		if b.cfg.TerminateAction < 0 && pi.Mass(b.nullSet) >= certainty {
			out[j] = Decision{Terminate: true, Value: 0}
			if collect {
				b.batchStats[off+j] = b.statsFor(pi, out[j], nil)
			}
			continue
		}
		if online != nil {
			if d, ok := online.recall(gen, b.batchHash[off+j], pi); ok {
				out[j] = d
				hits++
				continue
			}
		}
		b.batchIdx = append(b.batchIdx, j)
		b.batchPis = append(b.batchPis, pi)
	}
	if online != nil {
		if hits > 0 {
			online.onlineHits.Add(hits)
		}
		if misses := len(b.batchIdx); misses > 0 {
			online.onlineMisses.Add(uint64(misses))
		}
	}
	if len(b.batchIdx) == 0 {
		return nil
	}
	res := b.batchRes[off : off+len(b.batchIdx)]
	before := b.engine.Counters()
	if err := b.engine.ChooseBatch(b.batchPis, res); err != nil {
		return err
	}
	for k, j := range b.batchIdx {
		out[j] = b.toDecision(&res[k])
		if online != nil {
			online.remember(gen, b.batchHash[off+j], b.batchPis[k], out[j])
		}
	}
	if collect {
		// One shared expansion served the run: attribute the engine-counter
		// deltas evenly across its members (remainder to the first), so
		// summing the per-decision stats reproduces the true totals.
		after := b.engine.Counters()
		m := uint64(len(b.batchIdx))
		dn, dl, ds := after.Nodes-before.Nodes, after.LeafEvals-before.LeafEvals, after.SlabPasses-before.SlabPasses
		for k, j := range b.batchIdx {
			st := b.statsFor(b.batchPis[k], out[j], res[k].QValues)
			st.TreeNodes = dn / m
			st.LeafEvals = dl / m
			st.SlabPasses = ds / m
			if k == 0 {
				st.TreeNodes += dn % m
				st.LeafEvals += dl % m
				st.SlabPasses += ds % m
			}
			b.batchStats[off+j] = st
		}
	}
	return nil
}
