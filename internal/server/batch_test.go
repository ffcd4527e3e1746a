package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"bpomdp/internal/controller"
	"bpomdp/internal/core"
	"bpomdp/internal/models"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
)

// newBatchTestServer is newTestServer plus the batch-decide endpoint.
func newBatchTestServer(t *testing.T, mutate func(*Config)) (*Server, *core.Prepared) {
	t.Helper()
	ts, err := models.NewTwoServer(models.TwoServerConfig{Coverage: 0.9, FalsePositive: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	rm := &core.RecoveryModel{
		POMDP:           ts.Model,
		NullStates:      ts.NullStates,
		RateRewards:     ts.RateRewards,
		Durations:       []float64{1, 1, 0},
		MonitorAction:   ts.ActionObserve,
		MonitorDuration: 0.1,
	}
	prep, err := core.Prepare(rm, core.PrepareOptions{OperatorResponseTime: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Bootstrap(10, controller.VariantAverage, 1, rng.New(3)); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Model: prep.Model,
		NewController: func() (controller.Controller, pomdp.Belief, error) {
			ctrl, err := prep.NewController(core.ControllerConfig{Depth: 1})
			if err != nil {
				return nil, nil, err
			}
			initial, err := prep.InitialBelief()
			return ctrl, initial, err
		},
		NewBatchDecider: func() (controller.BatchDecider, error) {
			return prep.NewController(core.ControllerConfig{Depth: 1})
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, prep
}

func postBatch(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/decide/batch", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestBatchDecideMatchesLocalController: the endpoint's decisions must equal
// a local controller's DecideBatch on the same beliefs (the endpoint is a
// transport, not a different algorithm).
func TestBatchDecideMatchesLocalController(t *testing.T) {
	srv, prep := newBatchTestServer(t, nil)
	hs := httptest.NewServer(srv)
	defer hs.Close()

	n := prep.Model.NumStates()
	stream := rng.New(23)
	req := BatchDecideRequest{Beliefs: make([][]float64, 9)}
	for i := range req.Beliefs {
		pi := make([]float64, n)
		sum := 0.0
		for s := range pi {
			pi[s] = stream.Float64()
			sum += pi[s]
		}
		for s := range pi {
			pi[s] /= sum
		}
		req.Beliefs[i] = pi
	}

	resp, data := postBatch(t, hs.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out BatchDecideResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Decisions) != len(req.Beliefs) {
		t.Fatalf("%d decisions for %d beliefs", len(out.Decisions), len(req.Beliefs))
	}

	local, err := prep.NewController(core.ControllerConfig{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	beliefs := make([]pomdp.Belief, len(req.Beliefs))
	for i, b := range req.Beliefs {
		beliefs[i] = b
	}
	want := make([]controller.Decision, len(beliefs))
	if err := local.DecideBatch(beliefs, want); err != nil {
		t.Fatal(err)
	}
	for i, d := range out.Decisions {
		got := controller.Decision{Action: d.Action, Terminate: d.Terminate, Value: d.Value}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("decision %d: remote %+v, local %+v", i, got, want[i])
		}
		if d.ActionName == "" {
			t.Errorf("decision %d: missing action name", i)
		}
	}
}

// TestBatchDecideRouteAbsentWithoutFactory: without NewBatchDecider the
// route must not exist at all.
func TestBatchDecideRouteAbsentWithoutFactory(t *testing.T) {
	srv, _ := newBatchTestServer(t, func(cfg *Config) { cfg.NewBatchDecider = nil })
	hs := httptest.NewServer(srv)
	defer hs.Close()
	resp, _ := postBatch(t, hs.URL, BatchDecideRequest{Beliefs: [][]float64{{1, 0, 0, 0}}})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %d without a batch factory, want 404", resp.StatusCode)
	}
}

func TestBatchDecideValidation(t *testing.T) {
	srv, prep := newBatchTestServer(t, nil)
	hs := httptest.NewServer(srv)
	defer hs.Close()
	n := prep.Model.NumStates()
	good := make([]float64, n)
	good[0] = 1
	overCap := make([][]float64, maxBatchBeliefs+1)
	for i := range overCap {
		overCap[i] = good
	}

	cases := []struct {
		name   string
		req    BatchDecideRequest
		status int
		want   string
	}{
		{"empty", BatchDecideRequest{}, http.StatusBadRequest, "no beliefs"},
		{"over cap", BatchDecideRequest{Beliefs: overCap},
			http.StatusBadRequest, "over cap 1024"},
		{"wrong length", BatchDecideRequest{Beliefs: [][]float64{{1, 0}}},
			http.StatusBadRequest, "has length 2"},
		{"not a distribution", BatchDecideRequest{Beliefs: [][]float64{{2, -1, 0, 0}}},
			http.StatusBadRequest, "not a distribution"},
	}
	for _, c := range cases {
		resp, data := postBatch(t, hs.URL, c.req)
		if resp.StatusCode != c.status || !strings.Contains(string(data), c.want) {
			t.Errorf("%s: status %d body %s, want %d containing %q", c.name, resp.StatusCode, data, c.status, c.want)
		}
	}
}

func TestBatchDecideOversizeBody(t *testing.T) {
	srv, _ := newBatchTestServer(t, func(cfg *Config) { cfg.MaxBodyBytes = 256 })
	hs := httptest.NewServer(srv)
	defer hs.Close()
	req := BatchDecideRequest{Beliefs: make([][]float64, 64)}
	for i := range req.Beliefs {
		req.Beliefs[i] = []float64{1, 0, 0, 0}
	}
	resp, data := postBatch(t, hs.URL, req)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d body %s, want 413", resp.StatusCode, data)
	}
}

func TestBatchDecideMetrics(t *testing.T) {
	srv, prep := newBatchTestServer(t, nil)
	hs := httptest.NewServer(srv)
	defer hs.Close()
	n := prep.Model.NumStates()
	pi := make([]float64, n)
	pi[0] = 1
	for i := 0; i < 3; i++ {
		resp, data := postBatch(t, hs.URL, BatchDecideRequest{Beliefs: [][]float64{pi, pi}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
	}
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(data)
	if !strings.Contains(body, "recoverd_batch_decide_requests_total 3") {
		t.Errorf("metrics missing batch request count:\n%s", body)
	}
	if !strings.Contains(body, "recoverd_batch_decisions_total 6") {
		t.Errorf("metrics missing batch decision count:\n%s", body)
	}
}
