package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// TraceSchema identifies the structured decision-trace document format: one
// JSON DecisionRecord per line (JSONL).
const TraceSchema = "bpomdp.trace/v1"

// DecisionRecord is one structured trace entry: a recovery decision together
// with the quantities that explain it — the per-action bound values backing
// the argmax, the gap between the tree-backed value and the stored
// hyperplane bound (the anytime quality signal: zero means the stored bound
// is already tight at this belief), the belief entropy at decision time, and
// the work the Max-Avg expansion performed.
type DecisionRecord struct {
	// Schema is always TraceSchema.
	Schema string `json:"schema"`
	// Episode and Step locate the decision within a run. Episode numbering
	// is writer-specific (server episode id, or a trace recorder's running
	// count).
	Episode uint64 `json:"episode"`
	Step    int    `json:"step"`

	// Action is the chosen model action (-1 when Terminate without a
	// terminate action); ActionName resolves it when a model is available.
	Action     int    `json:"action"`
	ActionName string `json:"actionName,omitempty"`
	// Terminate reports that the controller ended the episode.
	Terminate bool `json:"terminate,omitempty"`
	// Value is the root value of the Max-Avg expansion (the controller's
	// bound-backed estimate of the belief's value).
	Value float64 `json:"value"`
	// QValues are the per-action bound values at the root, indexed by
	// action. Empty when the deciding controller does not expose them.
	QValues []float64 `json:"qValues,omitempty"`

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
	// did less work. For a batched decision these cover the whole batch,
	// attributed evenly across its expanded members.
	TreeNodes  uint64 `json:"treeNodes"`
	LeafEvals  uint64 `json:"leafEvals,omitempty"`
	SlabPasses uint64 `json:"slabPasses,omitempty"`

	// SetSize and SetEvictions snapshot the bound set at decision time.
	SetSize      int    `json:"setSize,omitempty"`
	SetEvictions uint64 `json:"setEvictions,omitempty"`

	// Tier identifies which serving tier produced the decision
	// (controller.TierFSC for a compiled table hit, controller.TierTree for a
	// Max-Avg expansion — including FSC fallbacks). Empty when the deciding
	// controller predates tier attribution.
	Tier string `json:"tier,omitempty"`
}

// TraceWriter writes DecisionRecords as JSONL. It serializes writes with a
// mutex, so one writer may be shared by many goroutines (parallel campaign
// workers, concurrent server handlers); each record lands as one intact
// line.
type TraceWriter struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewTraceWriter returns a TraceWriter emitting to w.
func NewTraceWriter(w io.Writer) *TraceWriter {
	return &TraceWriter{enc: json.NewEncoder(w)}
}

// Write emits one record, stamping its Schema field.
func (t *TraceWriter) Write(rec *DecisionRecord) error {
	rec.Schema = TraceSchema
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.enc.Encode(rec)
}

// DecodeTrace parses a JSONL decision trace, verifying the schema of every
// record.
func DecodeTrace(r io.Reader) ([]DecisionRecord, error) {
	var out []DecisionRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec DecisionRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		if rec.Schema != TraceSchema {
			return nil, fmt.Errorf("obs: trace line %d has schema %q, want %q", line, rec.Schema, TraceSchema)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: scan trace: %w", err)
	}
	return out, nil
}
