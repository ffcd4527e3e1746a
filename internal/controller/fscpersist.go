package controller

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"bpomdp/internal/pomdp"
)

// FSCSchema identifies the compiled-controller artifact format.
const FSCSchema = "bpomdp.fsc/v1"

// maxFSCFrameBytes bounds a single artifact frame, mirroring the log
// store's record guard: a corrupt length prefix must not trigger a giant
// allocation.
const maxFSCFrameBytes = 16 << 20

// fscHeaderJSON is frame 0 of the artifact.
type fscHeaderJSON struct {
	Schema          string  `json:"schema"`
	States          int     `json:"states"`
	Actions         int     `json:"actions"`
	Observations    int     `json:"observations"`
	Depth           int     `json:"depth"`
	Beta            float64 `json:"beta"`
	TerminateAction int     `json:"terminate_action"`
	Nodes           int     `json:"nodes"`
}

// fscNodeJSON is one node frame. Belief coordinates survive the JSON round
// trip bit-exactly (Go emits the shortest representation that parses back
// to the same float64), so a decoded table reproduces the compiler's
// belief index verbatim.
type fscNodeJSON struct {
	Belief     []float64 `json:"belief"`
	Action     int       `json:"action"`
	Terminate  bool      `json:"terminate,omitempty"`
	Value      float64   `json:"value"`
	Gap        float64   `json:"gap"`
	EdgeAction int       `json:"edge_action"`
	Edges      []int32   `json:"edges,omitempty"`
}

// writeFSCFrame writes one length-prefixed CRC-framed payload: u32 length,
// u32 CRC-32 (IEEE) of the payload, payload bytes, all little-endian.
func writeFSCFrame(w io.Writer, payload []byte) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFSCFrame reads the next frame. io.EOF is returned cleanly at a frame
// boundary; a torn or corrupt frame is an error: a compiled artifact is
// written atomically, so no valid prefix of a damaged file is trusted.
func readFSCFrame(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("controller: fsc artifact: torn frame header")
		}
		return nil, err
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	if length > maxFSCFrameBytes {
		return nil, fmt.Errorf("controller: fsc artifact: frame of %d bytes exceeds %d-byte limit", length, maxFSCFrameBytes)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("controller: fsc artifact: torn frame payload: %w", err)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(hdr[4:8]); got != want {
		return nil, fmt.Errorf("controller: fsc artifact: frame CRC mismatch (got %08x, want %08x)", got, want)
	}
	return payload, nil
}

// Encode writes the compiled table as a bpomdp.fsc/v1 artifact: a header
// frame followed by one frame per node, each length-prefixed and
// CRC-framed. The online region and the runtime counters are not part of
// the artifact.
func (f *FSC) Encode(w io.Writer) error {
	hdr, err := json.Marshal(fscHeaderJSON{
		Schema:          FSCSchema,
		States:          f.states,
		Actions:         f.actions,
		Observations:    f.observations,
		Depth:           f.depth,
		Beta:            f.beta,
		TerminateAction: f.terminateAction,
		Nodes:           len(f.nodes),
	})
	if err != nil {
		return err
	}
	if err := writeFSCFrame(w, hdr); err != nil {
		return err
	}
	for i := range f.nodes {
		n := &f.nodes[i]
		payload, err := json.Marshal(fscNodeJSON{
			Belief:     n.Belief,
			Action:     n.Action,
			Terminate:  n.Terminate,
			Value:      n.Value,
			Gap:        n.Gap,
			EdgeAction: n.EdgeAction,
			Edges:      n.Edges,
		})
		if err != nil {
			return err
		}
		if err := writeFSCFrame(w, payload); err != nil {
			return err
		}
	}
	return nil
}

// DecodeFSC reads and validates a bpomdp.fsc/v1 artifact. Every structural
// invariant the runtime relies on is checked here — dimensions, belief
// well-formedness, action/edge ranges, finite values, unique beliefs — so
// a decider can trust a decoded table without re-verifying per decision.
func DecodeFSC(r io.Reader) (*FSC, error) {
	payload, err := readFSCFrame(r)
	if err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("controller: fsc artifact: empty input")
		}
		return nil, err
	}
	var hdr fscHeaderJSON
	if err := json.Unmarshal(payload, &hdr); err != nil {
		return nil, fmt.Errorf("controller: fsc artifact: header: %w", err)
	}
	if hdr.Schema != FSCSchema {
		return nil, fmt.Errorf("controller: fsc artifact: schema %q, want %q", hdr.Schema, FSCSchema)
	}
	if hdr.States < 1 || hdr.Actions < 1 || hdr.Observations < 1 {
		return nil, fmt.Errorf("controller: fsc artifact: invalid dimensions %d/%d/%d", hdr.States, hdr.Actions, hdr.Observations)
	}
	if hdr.Depth < 1 {
		return nil, fmt.Errorf("controller: fsc artifact: invalid depth %d", hdr.Depth)
	}
	if !(hdr.Beta > 0 && hdr.Beta <= 1) {
		return nil, fmt.Errorf("controller: fsc artifact: invalid beta %v", hdr.Beta)
	}
	if hdr.TerminateAction < -1 || hdr.TerminateAction >= hdr.Actions {
		return nil, fmt.Errorf("controller: fsc artifact: terminate action %d out of range", hdr.TerminateAction)
	}
	if hdr.Nodes < 1 {
		return nil, fmt.Errorf("controller: fsc artifact: no nodes")
	}
	f := newFSC(hdr.States, hdr.Actions, hdr.Observations, hdr.Depth, hdr.Beta, hdr.TerminateAction)
	// Nodes are appended as they arrive: the header's count is a claim to
	// check against the input, not a size to allocate.
	for i := 0; i < hdr.Nodes; i++ {
		payload, err := readFSCFrame(r)
		if err != nil {
			if err == io.EOF {
				return nil, fmt.Errorf("controller: fsc artifact: %d nodes declared, input ends after %d", hdr.Nodes, i)
			}
			return nil, err
		}
		var nj fscNodeJSON
		if err := json.Unmarshal(payload, &nj); err != nil {
			return nil, fmt.Errorf("controller: fsc artifact: node %d: %w", i, err)
		}
		n, err := validateFSCNode(&nj, &hdr)
		if err != nil {
			return nil, fmt.Errorf("controller: fsc artifact: node %d: %w", i, err)
		}
		// A compiled table must be a function from belief to decision.
		if j := f.findNode(hashBelief(n.Belief), n.Belief); j >= 0 {
			return nil, fmt.Errorf("controller: fsc artifact: nodes %d and %d share a belief", j, i)
		}
		f.addNode(n)
	}
	if _, err := readFSCFrame(r); err != io.EOF {
		if err == nil {
			return nil, fmt.Errorf("controller: fsc artifact: trailing data after %d nodes", hdr.Nodes)
		}
		return nil, fmt.Errorf("controller: fsc artifact: trailing data after %d nodes: %w", hdr.Nodes, err)
	}
	return f, nil
}

// validateFSCNode checks one decoded node against the header's dimensions.
func validateFSCNode(nj *fscNodeJSON, hdr *fscHeaderJSON) (FSCNode, error) {
	if len(nj.Belief) != hdr.States {
		return FSCNode{}, fmt.Errorf("belief length %d, want %d", len(nj.Belief), hdr.States)
	}
	pi := pomdp.Belief(nj.Belief)
	for _, x := range pi {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return FSCNode{}, fmt.Errorf("non-finite belief coordinate %v", x)
		}
	}
	if !pi.IsDistribution() {
		return FSCNode{}, fmt.Errorf("belief is not a distribution")
	}
	// Certainty terminations carry the Decision zero value (Action 0), so
	// the action range check is uniform across regimes.
	if nj.Action < 0 || nj.Action >= hdr.Actions {
		return FSCNode{}, fmt.Errorf("action %d out of range [0,%d)", nj.Action, hdr.Actions)
	}
	if math.IsNaN(nj.Value) || math.IsInf(nj.Value, 0) {
		return FSCNode{}, fmt.Errorf("non-finite value %v", nj.Value)
	}
	if math.IsNaN(nj.Gap) || math.IsInf(nj.Gap, 0) {
		return FSCNode{}, fmt.Errorf("non-finite gap %v", nj.Gap)
	}
	if nj.Edges != nil {
		if len(nj.Edges) != hdr.Observations {
			return FSCNode{}, fmt.Errorf("%d edges, want %d", len(nj.Edges), hdr.Observations)
		}
		if nj.EdgeAction < 0 || nj.EdgeAction >= hdr.Actions {
			return FSCNode{}, fmt.Errorf("edge action %d out of range [0,%d)", nj.EdgeAction, hdr.Actions)
		}
		for o, e := range nj.Edges {
			if e < -1 || int(e) >= hdr.Nodes {
				return FSCNode{}, fmt.Errorf("edge %d under obs %d out of range [-1,%d)", e, o, hdr.Nodes)
			}
		}
	}
	return FSCNode{
		Belief:     pi,
		Action:     nj.Action,
		Terminate:  nj.Terminate,
		Value:      nj.Value,
		Gap:        nj.Gap,
		EdgeAction: nj.EdgeAction,
		Edges:      nj.Edges,
	}, nil
}
