package obs

// DecisionRecord explains one freshly computed recovery decision. It rides
// the handler span that computed the decision (SpanRecord.Decision on
// server.decide, or on server.observe when the observation asked for the
// next decision); a decision re-served from the per-step cache carries none.
type DecisionRecord struct {
	// Step is the episode step the decision was made at (0-based).
	Step int `json:"step"`
	// Action is the chosen model action (-1 when Terminate without a
	// terminate action); ActionName resolves it against the model.
	Action     int    `json:"action"`
	ActionName string `json:"actionName,omitempty"`
	// Terminate reports that the controller ended the episode.
	Terminate bool `json:"terminate,omitempty"`
	// Value is the root value of the Max-Avg expansion (the controller's
	// bound-backed estimate of the belief's value).
	Value float64 `json:"value"`

	// Explanation is present only when the episode controller collects
	// per-decision stats; its fields are inlined into the JSON object.
	*Explanation
}

// Explanation is the bound-gap account of a decision: the per-action bound
// values backing the argmax, the gap between the tree-backed value and the
// stored hyperplane bound (zero means the stored bound is already tight at
// this belief), the belief entropy at decision time, and the work the
// Max-Avg expansion performed.
type Explanation struct {
	// QValues are the per-action bound values at the root, indexed by
	// action.
	QValues []float64 `json:"qValues"`

	// LeafBound is V_B⁻(π), the stored hyperplane bound at the decision
	// belief, and BoundGap = Value − LeafBound ≥ 0 is how much the tree
	// expansion improved on it (Property 1(b)'s slack).
	LeafBound float64 `json:"leafBound"`
	BoundGap  float64 `json:"boundGap"`
	// BeliefEntropy is the Shannon entropy (nats) of the decision belief.
	BeliefEntropy float64 `json:"beliefEntropy"`

	// TreeNodes counts belief nodes expanded (Max-Avg backups) for this
	// decision, LeafEvals the leaf-bound evaluations at the frontier, and
	// SlabPasses the batched ValueBatch calls, one per frontier. TreeNodes
	// and LeafEvals count the logical tree — every belief, duplicates
	// included — even where the expansion merged bit-identical beliefs and
	// did less work.
	TreeNodes  uint64 `json:"treeNodes"`
	LeafEvals  uint64 `json:"leafEvals"`
	SlabPasses uint64 `json:"slabPasses"`

	// SetSize and SetEvictions snapshot the bound set at decision time.
	SetSize      int    `json:"setSize"`
	SetEvictions uint64 `json:"setEvictions"`
}
