package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"bpomdp/internal/controller"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
)

// wireFloats are the float64 values that exercise every branch of
// encoding/json's float format.
var wireFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1.0 / 3, 100, 123456789,
	1e-6, 1e-7, -1e-7, 9.999999e-7, 1e20, 1e21, -1e21, 1.5e300,
	5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
}

// wireNames are strings that exercise every branch of encoding/json's
// HTML-escaping string quoting.
var wireNames = []string{
	"", "observe", "restart:S1", "a<b", "a>b", "x&y", "q\"uote", `back\slash`,
	"line\u2028sep", "para\u2029sep", "bad\xffutf8", "trunc\xe2\x80", "tab\there",
	"nl\n", "ctl\x01\x1f\x7f", "\b\f\r", "\u00fcn\u00efc\u00f6d\u00e9", "emoji \U0001F600",
}

// wireValues returns random values of every codec type, with the edge
// floats and names mixed in.
func wireValues(r *rng.Stream, n int) []any {
	float := func() float64 {
		if r.IntN(3) == 0 {
			return wireFloats[r.IntN(len(wireFloats))]
		}
		return (r.Float64() - 0.5) * math.Pow(10, float64(r.IntN(40)-20))
	}
	name := func() string { return wireNames[r.IntN(len(wireNames))] }
	decision := func() DecisionResponse {
		return DecisionResponse{Action: r.IntN(7) - 1, ActionName: name(), Terminate: r.IntN(2) == 0, Value: float()}
	}
	var out []any
	for range n {
		var beliefs [][]float64
		if r.IntN(8) > 0 {
			beliefs = make([][]float64, r.IntN(5))
			for i := range beliefs {
				if r.IntN(8) == 0 {
					continue // a nil belief encodes as null
				}
				beliefs[i] = make([]float64, r.IntN(6))
				for k := range beliefs[i] {
					beliefs[i][k] = float()
				}
			}
		}
		var decisions []DecisionResponse
		if r.IntN(8) > 0 {
			decisions = make([]DecisionResponse, r.IntN(5))
			for i := range decisions {
				decisions[i] = decision()
			}
		}
		obs := ObservationRequest{Action: r.IntN(9) - 4, Observation: r.IntN(9) - 4}
		if r.IntN(2) == 0 {
			obs.ActionName, obs.ObservationName = name(), name()
		}
		if r.IntN(2) == 0 {
			step := r.IntN(1000) - 1
			obs.StepIndex = &step
		}
		key := ""
		if r.IntN(2) == 0 {
			key = name()
		}
		var first *Step
		if r.IntN(2) == 0 {
			first = &Step{Action: r.IntN(9) - 4, Observation: r.IntN(9) - 4}
		}
		var decided *DecisionResponse
		if r.IntN(2) == 0 {
			d := decision()
			decided = &d
		}
		out = append(out,
			BatchDecideRequest{Beliefs: beliefs},
			BatchDecideResponse{Decisions: decisions},
			decision(),
			obs,
			StartRequest{ClientKey: key, First: first},
			StartResponse{EpisodeID: uint64(r.Float64()*(1<<53)) << uint(r.IntN(12)), Decision: decided},
		)
	}
	return out
}

// TestWireEncodeMatchesEncodingJSON: AppendJSON writes json.Marshal's
// bytes, writeJSON the Encoder's (a trailing newline), and Marshal is
// json.Marshal, byte for byte.
func TestWireEncodeMatchesEncodingJSON(t *testing.T) {
	values := wireValues(rng.New(11), 400)
	for _, f := range wireFloats {
		values = append(values, DecisionResponse{Value: f}, BatchDecideRequest{Beliefs: [][]float64{{f, -f}}},
			StartResponse{EpisodeID: 7, Decision: &DecisionResponse{Action: -1, Terminate: true, Value: f}})
	}
	for _, name := range wireNames {
		values = append(values, DecisionResponse{ActionName: name}, StartRequest{ClientKey: name},
			StartRequest{ClientKey: name, First: &Step{Action: 2, Observation: -1}},
			StartResponse{Decision: &DecisionResponse{ActionName: name}},
			ObservationRequest{ActionName: name, ObservationName: name})
	}
	values = append(values, BatchDecideRequest{Beliefs: [][]float64{}}, BatchDecideRequest{Beliefs: [][]float64{{}}},
		BatchDecideResponse{Decisions: []DecisionResponse{}})
	for _, v := range values {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("json.Marshal(%#v): %v", v, err)
		}
		got, err := v.(jsonAppender).AppendJSON([]byte("prefix"))
		if err != nil {
			t.Fatalf("AppendJSON(%#v): %v", v, err)
		}
		if !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("AppendJSON(%#v)\n got %s\nwant prefix%s", v, got, want)
		}
		if m, err := Marshal(v); err != nil || !bytes.Equal(m, want) {
			t.Fatalf("Marshal(%#v) = %s, %v; want %s", v, m, err, want)
		}
		var enc bytes.Buffer
		if err := json.NewEncoder(&enc).Encode(v); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), enc.Bytes()) {
			t.Fatalf("writeJSON(%#v) = %d %q, want 200 %q", v, rec.Code, rec.Body.Bytes(), enc.Bytes())
		}
	}
}

// TestWireEncodeNonFinite: a non-finite float fails AppendJSON with
// json.Marshal's error text.
func TestWireEncodeNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, v := range []any{
			DecisionResponse{Value: f},
			BatchDecideResponse{Decisions: []DecisionResponse{{}, {Value: f}}},
			BatchDecideRequest{Beliefs: [][]float64{{0.5, f}}},
			StartResponse{EpisodeID: 1, Decision: &DecisionResponse{Value: f}},
		} {
			_, want := json.Marshal(v)
			_, got := v.(jsonAppender).AppendJSON(nil)
			if want == nil || got == nil || got.Error() != want.Error() {
				t.Errorf("AppendJSON(%#v) error %v, json.Marshal's %v", v, got, want)
			}
		}
	}
}

// TestWriteJSONEncodesBeforeStatus: a response that cannot be encoded
// answers 500 with an error body, not a 200 with an empty one — on the
// codec's path and on encoding/json's.
func TestWriteJSONEncodesBeforeStatus(t *testing.T) {
	for _, v := range []any{DecisionResponse{Value: math.NaN()}, BeliefResponse{Belief: []float64{math.Inf(1)}}} {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v)
		var e ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != http.StatusInternalServerError || err != nil || e.Error == "" {
			t.Errorf("writeJSON(%#v) = %d %q, want 500 with an error body", v, rec.Code, rec.Body.Bytes())
		}
	}
}

// nanDecider decides NaN values.
type nanDecider struct{}

func (nanDecider) DecideBatch(pis []pomdp.Belief, out []controller.Decision) error {
	for i := range pis {
		out[i] = controller.Decision{Action: 0, Value: math.NaN()}
	}
	return nil
}

// TestBatchDecideUnencodableAnswers500: a decider value the wire cannot
// carry reaches the client as a 500 with the encode error.
func TestBatchDecideUnencodableAnswers500(t *testing.T) {
	srv, prep := newBatchTestServer(t, func(c *Config) {
		c.NewBatchDecider = func() (controller.BatchDecider, error) { return nanDecider{}, nil }
	})
	initial, err := prep.InitialBelief()
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(BatchDecideRequest{Beliefs: [][]float64{initial}})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/decide/batch", bytes.NewReader(body)))
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "unsupported value: NaN") {
		t.Fatalf("got %d %q, want 500 naming the NaN", rec.Code, rec.Body.String())
	}
}

// wireTargets returns a fresh zero value of every decode target.
func wireTargets() []any {
	return []any{new(BatchDecideRequest), new(BatchDecideResponse), new(DecisionResponse),
		new(ObservationRequest), new(StartRequest), new(StartResponse)}
}

// sameBits reports whether a and b hold the same value, comparing floats
// by their bits and telling nil slices and pointers from empty or zero ones.
func sameBits(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

// checkWireDecode decodes data into every target on the fast path and
// through encoding/json, and fails when the fast path accepts bytes that
// encoding/json decodes differently, or rejects them but touches v.
func checkWireDecode(t *testing.T, data []byte) {
	t.Helper()
	// The second pass decodes into the scratch the first pass warmed.
	var sc DecodeScratch
	for range 2 {
		for _, v := range wireTargets() {
			if !decodeCanonical(data, v, &sc) {
				if !reflect.ValueOf(v).Elem().IsZero() {
					t.Fatalf("declined %q but wrote %T", data, v)
				}
				continue
			}
			ref := reflect.New(reflect.TypeOf(v).Elem()).Interface()
			if err := json.NewDecoder(bytes.NewReader(data)).Decode(ref); err != nil {
				t.Fatalf("fast path accepted %q as %T, encoding/json refuses it: %v", data, v, err)
			}
			if !sameBits(reflect.ValueOf(v).Elem(), reflect.ValueOf(ref).Elem()) {
				t.Fatalf("%q as %T: fast path %#v, encoding/json %#v", data, v, reflect.ValueOf(v).Elem(), reflect.ValueOf(ref).Elem())
			}
		}
	}
}

// FuzzWireDecode is differential: whenever the fast path accepts a body,
// what it decodes equals encoding/json's decode, bit for bit.
func FuzzWireDecode(f *testing.F) {
	for _, v := range wireValues(rng.New(5), 8) {
		if b, err := v.(jsonAppender).AppendJSON(nil); err == nil {
			f.Add(b)
			f.Add(append(b, '\n'))
		}
	}
	for _, x := range wireFloats {
		f.Add(fmt.Appendf(nil, `{"beliefs":[[%v,%v]]}`, x, -x))
		f.Add(fmt.Appendf(nil, `{"action":1,"actionName":"a","terminate":false,"value":%v}`, x))
	}
	for _, name := range wireNames {
		b, _ := StartRequest{ClientKey: name}.AppendJSON(nil)
		f.Add(b)
	}
	for _, s := range []string{
		`{"beliefs":[[1e999]]}`, `{"beliefs":[[01]]}`, `{"beliefs":[[-]]}`, `{"beliefs":[[1.]]}`, `{"beliefs":[[1e]]}`,
		`{"beliefs":[[],[]]}`, `{"beliefs":[]}`, `{"beliefs":null}`, `{"beliefs":[[0.5, 0.5]]}`,
		`{"beliefs":[[1]]}x`, `{"beliefs":[[1]]}` + "\n\n", `{"Beliefs":[[1]]}`, `{"beliefs":[[1]],"x":1}`,
		`{"action":1.5,"actionName":"a","terminate":true,"value":1}`,
		`{"action":9223372036854775808,"actionName":"a","terminate":true,"value":1}`,
		`{"action":-0,"observation":0,"stepIndex":-0,"decide":false}`,
		`{"observation":0,"action":1}`, `{"clientKey":"aA"}`, `{"clientKey":"\u00e9"}`, `{"clientKey":null}`,
		`{"episodeId":-1}`, `{"episodeId":18446744073709551616}`, `{"episodeId":1e3}`, `{}`, ``,
		// The zero fast path: only a bare 0 before , or ] skips strconv.
		`{"beliefs":[[0]]}`, `{"beliefs":[[-0]]}`, `{"beliefs":[[0.0]]}`, `{"beliefs":[[00]]}`,
		`{"beliefs":[[0e0]]}`, `{"beliefs":[[0,-0,0]]}`, `{"beliefs":[[0],[]]}`, `{"beliefs":[[0`,
		// Fused starts and their answers: with and without a key, a first
		// observation carrying a stepIndex (which a start ignores), and
		// truncated or null parts.
		`{"clientKey":"k","first":{"action":1,"observation":0}}`, `{"first":{"action":-2,"observation":3}}`,
		`{"clientKey":"k","first":{"action":1,"observation":0,"stepIndex":0}}`, `{"first":{"observation":0,"action":1}}`,
		`{"clientKey":"k","first":`, `{"clientKey":"k","first":{"action":1,"observation":0}`, `{"first":null}`,
		`{"first":{"action":1,"observation":0},"clientKey":"k"}`, `{"clientKey":"k",,"first":{"action":1,"observation":0}}`,
		`{"episodeId":7,"decision":{"action":1,"actionName":"a","terminate":false,"value":0.5}}`,
		`{"episodeId":7,"decision":null}`, `{"episodeId":7,"decision":{"action":1}}`, `{"episodeId":7,"decision":`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(checkWireDecode)
}

// TestWireDecodeFallback: bodies outside the canonical form — and bodies
// whose read fails — decode through encoding/json with its result and its
// error text, the way json.NewDecoder(r).Decode does on the same stream.
func TestWireDecodeFallback(t *testing.T) {
	bodies := []string{
		" {\"beliefs\":[[0.5,0.5]]}", `{"beliefs": [[0.5,0.5]]}`, `{"Beliefs":[[1]]}`, `{"beliefs":null}`,
		`{"beliefs":[[1e999]]}`, `{"beliefs":[[1]]} trailing`, `{"beliefs":[[1]]}{"beliefs":[]}`, `{"beliefs":[[1]]`,
		`{"decide":true,"action":1,"observation":2,"stepIndex":3}`, `{"action":1,"observation":2,"unknown":1}`,
		`{"action":"1"}`, `{"clientKey":"<k>"}`, `{"clientKey":"\u00fc"}`, `{"episodeId":1.0}`, `null`, ``, `[`,
		`{"decisions":[{"action":1,"actionName":"a","terminate":true,"value":1,"extra":0}]}`,
	}
	for _, body := range bodies {
		for _, v := range wireTargets() {
			ref := reflect.New(reflect.TypeOf(v).Elem()).Interface()
			wantErr := json.NewDecoder(strings.NewReader(body)).Decode(ref)
			gotErr := ReadJSON(strings.NewReader(body), v)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%q into %T: error %v, encoding/json %v", body, v, gotErr, wantErr)
			}
			if !sameBits(reflect.ValueOf(v).Elem(), reflect.ValueOf(ref).Elem()) {
				t.Fatalf("%q into %T: decoded %#v, encoding/json %#v", body, v, v, ref)
			}
		}
	}

	// A key the body omits keeps its old value under encoding/json.
	prefilled := func() []any {
		step := 5
		return []any{&ObservationRequest{ActionName: "a", StepIndex: &step}, &StartRequest{ClientKey: "k"},
			&StartRequest{First: &Step{Action: 3, Observation: 4}},
			&StartResponse{EpisodeID: 9, Decision: &DecisionResponse{ActionName: "old", Value: 2}}}
	}
	for _, body := range []string{`{"action":1,"observation":2}`, `{}`, `{"episodeId":7}`,
		`{"episodeId":7,"decision":{"action":1,"actionName":"a","terminate":true,"value":1}}`,
		`{"clientKey":"k","first":{"action":1,"observation":0}}`} {
		for i, v := range prefilled() {
			ref := prefilled()[i]
			wantErr := json.NewDecoder(strings.NewReader(body)).Decode(ref)
			gotErr := ReadJSON(strings.NewReader(body), v)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !sameBits(reflect.ValueOf(v).Elem(), reflect.ValueOf(ref).Elem()) {
				t.Fatalf("%q into a filled %T: %+v, %v; encoding/json %+v, %v", body, v, v, gotErr, ref, wantErr)
			}
		}
	}

	// A read that fails after a complete value still decodes it; one that
	// fails inside the value returns the read's error.
	readErr := errors.New("connection reset")
	for _, tc := range []struct {
		body    string
		wantErr error
	}{
		{`{"episodeId":7}`, nil},
		{`{"episodeId":7`, readErr},
	} {
		var got StartResponse
		err := ReadJSON(io.MultiReader(strings.NewReader(tc.body), errReader{readErr}), &got)
		if !errors.Is(err, tc.wantErr) || (err == nil && got.EpisodeID != 7) {
			t.Errorf("%q then a read error: %+v, %v; want error %v", tc.body, got, err, tc.wantErr)
		}
	}

	// Over the body cap: a value complete within the cap decodes, one cut
	// by it fails with *http.MaxBytesError, as a streaming decode does.
	for _, tc := range []struct {
		body      string
		wantLarge bool
	}{
		{`{"episodeId":7}` + strings.Repeat(" ", 64), false},
		{`{"episodeId":7` + strings.Repeat(" ", 64) + `}`, true},
	} {
		var got, ref StartResponse
		rec := httptest.NewRecorder()
		wantErr := json.NewDecoder(http.MaxBytesReader(rec, io.NopCloser(strings.NewReader(tc.body)), 32)).Decode(&ref)
		err := ReadJSON(http.MaxBytesReader(rec, io.NopCloser(strings.NewReader(tc.body)), 32), &got)
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) != tc.wantLarge || fmt.Sprint(err) != fmt.Sprint(wantErr) || got != ref {
			t.Errorf("%q past a 32-byte cap: %+v, %v; encoding/json %+v, %v", tc.body, got, err, ref, wantErr)
		}
	}
}
