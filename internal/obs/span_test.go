package obs

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestSpanRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewSpanWriter(&buf)
	in := []SpanRecord{
		{TraceID: "k1", Node: "n1", Kind: SpanServerDecide, Start: 100, Duration: 50,
			Episode: 7, Tier: "fsc", Status: 200},
		{TraceID: "k1", Node: "client", Kind: SpanClientBackoff, Start: 160, Duration: 40,
			Op: "decide", Attempt: 1},
		{TraceID: "k2", Node: "n2", Kind: SpanServerReplicate, Start: 10, Duration: 5,
			Target: "n3", Events: []SpanEvent{{Name: "attempt", At: 11, Detail: "status=204"}}},
	}
	for i := range in {
		rec := in[i]
		if err := w.Write(&rec); err != nil {
			t.Fatal(err)
		}
	}
	got, err := DecodeSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(in) {
		t.Fatalf("decoded %d spans, want %d", len(got), len(in))
	}
	for i := range got {
		if got[i].Schema != SpanSchema {
			t.Errorf("span %d schema %q", i, got[i].Schema)
		}
		if got[i].TraceID != in[i].TraceID || got[i].Kind != in[i].Kind ||
			got[i].Start != in[i].Start || got[i].Duration != in[i].Duration {
			t.Errorf("span %d round-trip mismatch: %+v vs %+v", i, got[i], in[i])
		}
	}
	if got[0].End() != 150 {
		t.Errorf("End() = %d, want 150", got[0].End())
	}
	if len(got[2].Events) != 1 || got[2].Events[0].Detail != "status=204" {
		t.Errorf("events did not round-trip: %+v", got[2].Events)
	}
}

// TestTraceRoundTrip: the decision explanation nested in a span survives
// the JSONL round trip — with stats, every explanation field; without, the
// base fields only and no explanation object at all.
func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewSpanWriter(&buf)
	in := []SpanRecord{
		{TraceID: "k1", Node: "n1", Kind: SpanServerDecide, Start: 1, Duration: 2, Episode: 1, Tier: "tree", Status: 200,
			Decision: &DecisionRecord{Step: 0, Action: 2, ActionName: "restart", Value: -4.5,
				Explanation: &Explanation{QValues: []float64{-9, -5, -4.5}, LeafBound: -6, BoundGap: 1.5,
					BeliefEntropy: 1.9, TreeNodes: 1, LeafEvals: 12, SlabPasses: 1, SetSize: 11, SetEvictions: 2}}},
		{TraceID: "k1", Node: "n1", Kind: SpanServerObserve, Start: 5, Duration: 2, Episode: 1, Tier: "fsc", Status: 200,
			Decision: &DecisionRecord{Step: 1, Action: -1, Terminate: true}},
	}
	for i := range in {
		rec := in[i]
		if err := w.Write(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if strings.Contains(strings.Split(buf.String(), "\n")[1], "boundGap") {
		t.Error("a stats-off decision serialized explanation fields")
	}
	got, err := DecodeSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		in[i].Schema = SpanSchema
		if !reflect.DeepEqual(got[i], in[i]) {
			t.Errorf("span %d = %+v, want %+v", i, got[i], in[i])
		}
	}
	if got[1].Decision.Explanation != nil {
		t.Error("a stats-off decision decoded with an explanation")
	}
}

func TestDecodeSpansRejectsBadRecords(t *testing.T) {
	cases := map[string]string{
		"wrong schema":      `{"schema":"bpomdp.span/v999","traceId":"k","node":"n","kind":"server.decide","startUnixNano":1,"durationNanos":1}`,
		"missing traceId":   `{"schema":"bpomdp.span/v1","node":"n","kind":"server.decide","startUnixNano":1,"durationNanos":1}`,
		"missing node":      `{"schema":"bpomdp.span/v1","traceId":"k","kind":"server.decide","startUnixNano":1,"durationNanos":1}`,
		"missing kind":      `{"schema":"bpomdp.span/v1","traceId":"k","node":"n","startUnixNano":1,"durationNanos":1}`,
		"negative duration": `{"schema":"bpomdp.span/v1","traceId":"k","node":"n","kind":"server.decide","startUnixNano":1,"durationNanos":-1}`,
		"not json":          `nope`,
	}
	for name, line := range cases {
		if _, err := DecodeSpans(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Blank lines are skipped.
	got, err := DecodeSpans(strings.NewReader("\n\n"))
	if err != nil || len(got) != 0 {
		t.Errorf("blank stream: %v, %d spans", err, len(got))
	}
}

func TestSpanWriterConcurrent(t *testing.T) {
	var buf syncBuffer
	w := NewSpanWriter(&buf)
	const goroutines, each = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				_ = w.Write(&SpanRecord{TraceID: "k", Node: "n", Kind: SpanServerDecide,
					Start: int64(g*each + i), Duration: 1})
			}
		}(g)
	}
	wg.Wait()
	got, err := DecodeSpans(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != goroutines*each {
		t.Fatalf("decoded %d spans, want %d", len(got), goroutines*each)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the SpanWriter serializes
// encoding, but the underlying writer must still be safe for the test's
// final read.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// FuzzDecodeSpans: span files from every node feed cmd/tracestats, so the
// decoder must never panic on a line, and every record it accepts must
// re-encode and decode to an equal record (an empty event list and an absent
// one are the same record).
func FuzzDecodeSpans(f *testing.F) {
	f.Add(`{"schema":"bpomdp.span/v1","traceId":"k","node":"n1","kind":"server.decide","startUnixNano":1,"durationNanos":2,"episode":7,"tier":"tree","status":200,` +
		`"decision":{"step":0,"action":2,"actionName":"restart","value":-4.5,"qValues":[-9,-5,-4.5],"leafBound":-6,"boundGap":1.5,"beliefEntropy":1.9,` +
		`"treeNodes":1,"leafEvals":12,"slabPasses":1,"setSize":11,"setEvictions":2}}`)
	f.Add(`{"schema":"bpomdp.span/v1","traceId":"k","node":"n1","kind":"server.observe","startUnixNano":1,"durationNanos":2,"decision":{"step":3,"action":-1,"terminate":true,"value":0}}`)
	f.Add(`{"schema":"bpomdp.span/v1","traceId":"k","node":"n2","kind":"server.replicate","startUnixNano":1,"durationNanos":2,"events":[{"name":"attempt","atUnixNano":3,"detail":"status=204"}]}`)
	f.Add("\n\n")
	f.Fuzz(func(t *testing.T, data string) {
		recs, err := DecodeSpans(strings.NewReader(data))
		if err != nil {
			return
		}
		for i := range recs {
			var buf bytes.Buffer
			if err := NewSpanWriter(&buf).Write(&recs[i]); err != nil {
				t.Fatalf("record %d does not re-encode: %v", i, err)
			}
			again, err := DecodeSpans(&buf)
			if err != nil || len(again) != 1 {
				t.Fatalf("record %d re-encoded as %q decodes to %d records: %v", i, buf.String(), len(again), err)
			}
			if want, got := canonicalSpan(recs[i]), canonicalSpan(again[0]); !reflect.DeepEqual(got, want) {
				t.Fatalf("record %d round trip:\n got %+v\nwant %+v", i, got, want)
			}
		}
	})
}

// canonicalSpan maps an empty Events list to nil: the writer omits it, so it
// decodes as absent.
func canonicalSpan(r SpanRecord) SpanRecord {
	if len(r.Events) == 0 {
		r.Events = nil
	}
	return r
}
