//go:build !race

package server

import (
	"testing"

	"bpomdp/internal/core"
	"bpomdp/internal/emn"
	"bpomdp/internal/rng"
)

// emnBatch returns a batch request of 16 beliefs over the prepared EMN
// model and its 16-decision answer.
func emnBatch(t testing.TB) (BatchDecideRequest, BatchDecideResponse) {
	t.Helper()
	compiled, err := emn.Build(emn.Config{})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := core.Prepare(compiled.Recovery, core.PrepareOptions{OperatorResponseTime: emn.OperatorResponseTime})
	if err != nil {
		t.Fatal(err)
	}
	initial, err := prep.InitialBelief()
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	req := BatchDecideRequest{Beliefs: [][]float64{initial}}
	for len(req.Beliefs) < 16 {
		pi := make([]float64, len(initial))
		sum := 0.0
		for k := range pi {
			if r.IntN(3) == 0 {
				pi[k] = r.Float64()
				sum += pi[k]
			}
		}
		if sum == 0 {
			continue
		}
		for k := range pi {
			pi[k] /= sum
		}
		req.Beliefs = append(req.Beliefs, pi)
	}
	var resp BatchDecideResponse
	for i := range 16 {
		a := i % prep.Model.NumActions()
		resp.Decisions = append(resp.Decisions, DecisionResponse{
			Action: a, ActionName: prep.Model.M.ActionName(a), Terminate: i == 15, Value: -r.Float64() * 100,
		})
	}
	return req, resp
}

// TestWireAllocs pins the codec's steady state: encoding a batch request
// or response into a warm buffer allocates nothing, and neither does
// decoding a canonical request or response into a warm DecodeScratch. A
// fused start and its answer cost no more than the two exchanges they
// replace.
func TestWireAllocs(t *testing.T) {
	req, resp := emnBatch(t)
	buf := make([]byte, 0, 64<<10)
	if n := testing.AllocsPerRun(100, func() { buf, _ = req.AppendJSON(buf[:0]) }); n != 0 {
		t.Errorf("appending a 16-belief request allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { buf, _ = resp.AppendJSON(buf[:0]) }); n != 0 {
		t.Errorf("appending a 16-decision response allocates %v times, want 0", n)
	}

	body, err := req.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	var sc DecodeScratch
	var got BatchDecideRequest
	decode := func() {
		got = BatchDecideRequest{}
		if !decodeCanonical(body, &got, &sc) {
			t.Fatal("canonical request declined")
		}
	}
	decode()
	if n := testing.AllocsPerRun(100, decode); n != 0 {
		t.Errorf("decoding a 16-belief request into warm scratch allocates %v times, want 0", n)
	}
	if len(got.Beliefs) != 16 {
		t.Fatalf("decoded %d beliefs, want 16", len(got.Beliefs))
	}

	// A warm scratch interns the action names it has seen.
	body, err = resp.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	var gotResp BatchDecideResponse
	decodeResp := func() {
		gotResp = BatchDecideResponse{}
		if !decodeCanonical(body, &gotResp, &sc) {
			t.Fatal("canonical response declined")
		}
	}
	decodeResp()
	if n := testing.AllocsPerRun(100, decodeResp); n != 0 {
		t.Errorf("decoding a 16-decision response into warm scratch allocates %v times, want 0", n)
	}
	if len(gotResp.Decisions) != 16 {
		t.Fatalf("decoded %d decisions, want 16", len(gotResp.Decisions))
	}

	// A fused start — the start and the first observation in one body —
	// decodes in no more allocations than the start and the observation it
	// replaces, decoded apart.
	step := 0
	bodies := make([][]byte, 3)
	for i, v := range []jsonAppender{
		StartRequest{ClientKey: "0123456789abcdef0123456789abcdef", First: &Step{Action: 4, Observation: 2}},
		StartRequest{ClientKey: "0123456789abcdef0123456789abcdef"},
		ObservationRequest{Action: 4, Observation: 2, StepIndex: &step},
	} {
		bodies[i], _ = v.AppendJSON(nil)
	}
	decodes := func(body []byte, target func() any) float64 {
		return testing.AllocsPerRun(100, func() {
			if !decodeCanonical(body, target(), nil) {
				t.Fatalf("canonical %s declined", body)
			}
		})
	}
	var (
		start StartRequest
		obs   ObservationRequest
	)
	fused := decodes(bodies[0], func() any { start = StartRequest{}; return &start })
	plain := decodes(bodies[1], func() any { start = StartRequest{}; return &start })
	observe := decodes(bodies[2], func() any { obs = ObservationRequest{}; return &obs })
	if fused > plain+observe {
		t.Errorf("a fused start decodes in %v allocations, a start and an observation in %v + %v", fused, plain, observe)
	}

	// The fused start's answer decodes in no more than the start's and the
	// decision's answers apart, the decision into a fresh value as the
	// client's observation reads it.
	answers := make([][]byte, 3)
	d := DecisionResponse{Action: 1, ActionName: "observe", Value: -12.5}
	for i, v := range []jsonAppender{StartResponse{EpisodeID: 7, Decision: &d}, StartResponse{EpisodeID: 7}, d} {
		answers[i], _ = v.AppendJSON(nil)
	}
	var started StartResponse
	fusedAnswer := decodes(answers[0], func() any { started = StartResponse{}; return &started })
	startAnswer := decodes(answers[1], func() any { started = StartResponse{}; return &started })
	decideAnswer := decodes(answers[2], func() any { return new(DecisionResponse) })
	if fusedAnswer > startAnswer+decideAnswer {
		t.Errorf("a fused start's answer decodes in %v allocations, a start's and a decision's in %v + %v", fusedAnswer, startAnswer, decideAnswer)
	}
}

// BenchmarkWireBatch times the batch endpoint's codec on a 16-belief EMN
// request body: one decode into a warm DecodeScratch, as the server reads
// it, and one encode into a warm buffer, as the client writes it.
//
//	go test -run '^$' -bench WireBatch ./internal/server
func BenchmarkWireBatch(b *testing.B) {
	req, _ := emnBatch(b)
	body, err := req.AppendJSON(nil)
	if err != nil {
		b.Fatal(err)
	}
	var (
		sc  DecodeScratch
		got BatchDecideRequest
		buf []byte
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got = BatchDecideRequest{}
		if !decodeCanonical(body, &got, &sc) {
			b.Fatal("canonical request declined")
		}
		if buf, err = got.AppendJSON(buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
}
