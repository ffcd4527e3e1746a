package controller

// Decider tiers, recorded in DecisionStats.Tier and carried on decide spans
// so every explained decision attributes the serving tier.
const (
	// TierTree marks a decision a Bounded controller made past its FSC's
	// compiled nodes: by certainty termination, from the FSC's online
	// region or by the Max-Avg tree expansion.
	TierTree = "tree"
	// TierFSC marks a decision served from a compiled node of a
	// finite-state controller without expanding the tree.
	TierFSC = "fsc"
)

// TierSource reports which tier served a controller's most recent Decide.
// Unlike StatsSource it is always live — recording the tier is one constant
// store per decision — so per-tier latency metrics and span labels work
// even when full stats collection is off. Meaningful only from the single
// goroutine driving the controller, like Decide itself.
type TierSource interface {
	LastTier() string
}

// EngineCounters are the Engine's monotone work counters. The counters are
// plain (non-atomic) fields bumped unconditionally on the expansion path —
// an addition per tree level is noise next to the expansion itself — and
// are read by differencing snapshots around a decision, so they are
// meaningful only from the single goroutine driving the engine.
//
// Nodes and LeafEvals count the logical tree: the expansion merges
// bit-identical beliefs and adds each merged belief's multiplicity, so the
// counts are what expanding every belief separately would report, not the
// deduplicated work actually done.
type EngineCounters struct {
	// Nodes counts belief nodes of the logical tree (Max-Avg backups).
	Nodes uint64
	// LeafEvals counts leaf-bound evaluations at the logical tree frontier.
	LeafEvals uint64
	// SlabPasses counts batched ValueBatch calls, one per evaluated frontier.
	SlabPasses uint64
}

// DecisionStats explains one recovery decision: the chosen action and its
// bound-backed value, the per-action Q-values behind the argmax, the gap
// between the tree-backed value and the stored hyperplane bound (Property
// 1(b)'s slack — zero means the stored bound is already tight at this
// belief, so deeper expansion bought nothing), the belief entropy at
// decision time, and the work the Max-Avg expansion performed.
//
// QValues, when present, aliases a buffer owned by the controller that is
// reused by the next Decide/DecideBatch call; copy it to retain it.
type DecisionStats struct {
	Action    int
	Terminate bool
	Value     float64
	QValues   []float64

	// LeafBound is V_B⁻(π) at the decision belief (via Set.Peek, so reading
	// it does not perturb least-used eviction); BoundGap = Value − LeafBound.
	LeafBound float64
	BoundGap  float64
	// BeliefEntropy is the Shannon entropy (nats) of the decision belief.
	BeliefEntropy float64

	// TreeNodes, LeafEvals and SlabPasses are the engine-counter deltas
	// attributable to this decision; TreeNodes and LeafEvals count the
	// logical tree (see EngineCounters). For a batched decision the batch's
	// totals are attributed evenly across its expanded members (remainder to
	// the first), so summing over the batch is exact.
	TreeNodes  uint64
	LeafEvals  uint64
	SlabPasses uint64

	// SetSize and SetEvictions snapshot the bound set at decision time.
	SetSize      int
	SetEvictions uint64

	// Tier identifies which decider tier served the decision (TierTree or
	// TierFSC). Every stats-producing path sets it, so explained decisions
	// never silently drop tier attribution — in particular a decision the
	// FSC did not serve reports TierTree with the tree's own bound gap.
	Tier string
}

// StatsSource is implemented by controllers that can explain their
// decisions. StatsEnabled reports whether collection is configured —
// callers (campaign runners, the server) check it once per episode and
// skip the stats path entirely when it is off, which is what keeps
// instrumented builds free on the hot path. DecisionStats returns the stats
// of the most recent Decide; it is only meaningful when StatsEnabled.
type StatsSource interface {
	StatsEnabled() bool
	DecisionStats() DecisionStats
}

// BatchStatsSource extends StatsSource for batch deciders:
// BatchDecisionStats returns per-belief stats of the most recent
// DecideBatch, indexed like its pis/out arguments and valid until the next
// decision call.
type BatchStatsSource interface {
	StatsSource
	BatchDecisionStats() []DecisionStats
}
