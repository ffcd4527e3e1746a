package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"bpomdp/internal/controller"
	"bpomdp/internal/core"
	"bpomdp/internal/models"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
)

// newTestServer builds a server over the two-server model with a
// bootstrapped bounded controller per episode.
func newTestServer(t *testing.T) (*Server, *core.Prepared) {
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
	srv, err := New(Config{
		Model: prep.Model,
		NewController: func() (controller.Controller, pomdp.Belief, error) {
			ctrl, err := prep.NewController(core.ControllerConfig{Depth: 1})
			if err != nil {
				return nil, nil, err
			}
			initial, err := prep.InitialBelief()
			return ctrl, initial, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv, prep
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil model accepted")
	}
	ts, err := models.NewTwoServer(models.TwoServerConfig{Coverage: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Model: ts.Model}); err == nil {
		t.Error("nil factory accepted")
	}
	if _, err := New(Config{Model: ts.Model, NewController: func() (controller.Controller, pomdp.Belief, error) {
		return nil, nil, nil
	}, MaxEpisodes: -1}); err == nil {
		t.Error("negative cap accepted")
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	srv, _ := newTestServer(t)
	hs := httptest.NewServer(srv)
	defer hs.Close()

	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
	resp, err = http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	resp.Body.Close()
	if !strings.Contains(string(buf[:n]), "recoverd_episodes_started_total") {
		t.Errorf("metrics missing counters:\n%s", buf[:n])
	}
}

func TestEpisodeNotFoundAndBadID(t *testing.T) {
	srv, _ := newTestServer(t)
	hs := httptest.NewServer(srv)
	defer hs.Close()

	resp, err := http.Get(hs.URL + "/v1/episodes/999/decision")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing episode status %d", resp.StatusCode)
	}
	resp, err = http.Get(hs.URL + "/v1/episodes/bogus/decision")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id status %d", resp.StatusCode)
	}
}

func TestEpisodeCap(t *testing.T) {
	srv, prep := newTestServer(t)
	srv.cfg.MaxEpisodes = 1
	_ = prep
	hs := httptest.NewServer(srv)
	defer hs.Close()

	resp, err := http.Post(hs.URL+"/v1/episodes", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first episode status %d", resp.StatusCode)
	}
	resp, err = http.Post(hs.URL+"/v1/episodes", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("over-cap status %d", resp.StatusCode)
	}
	if srv.OpenEpisodes() != 1 {
		t.Errorf("open episodes = %d", srv.OpenEpisodes())
	}
}

func TestObservationValidation(t *testing.T) {
	srv, _ := newTestServer(t)
	hs := httptest.NewServer(srv)
	defer hs.Close()

	resp, err := http.Post(hs.URL+"/v1/episodes", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(hs.URL+"/v1/episodes/1/observations", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{not json`); code != http.StatusBadRequest {
		t.Errorf("malformed body status %d", code)
	}
	if code := post(`{"actionName":"launch-missiles","observationName":"obs-clear"}`); code != http.StatusBadRequest {
		t.Errorf("unknown action status %d", code)
	}
	if code := post(`{"actionName":"observe","observationName":"made-up"}`); code != http.StatusBadRequest {
		t.Errorf("unknown observation status %d", code)
	}
	if code := post(`{"actionName":"observe","observationName":"obs-a-failed"}`); code != http.StatusOK {
		t.Errorf("valid observation status %d", code)
	}
}

func TestDecisionDrivenEpisodeLifecycle(t *testing.T) {
	srv, prep := newTestServer(t)
	hs := httptest.NewServer(srv)
	defer hs.Close()

	resp, err := http.Post(hs.URL+"/v1/episodes", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var start StartResponse
	if err := json.NewDecoder(resp.Body).Decode(&start); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Drive the episode to termination: repeatedly fetch the decision and
	// post the observation the model says the null state would emit after
	// that action (the system is healthy, so recovery converges quickly).
	model := prep.Model
	sc := pomdp.NewScratch(model)
	nullState := 0
	for step := 0; step < 50; step++ {
		resp, err := http.Get(fmt.Sprintf("%s/v1/episodes/%d/decision", hs.URL, start.EpisodeID))
		if err != nil {
			t.Fatal(err)
		}
		var d DecisionResponse
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if d.Terminate {
			// Terminated episodes are garbage-collected server-side.
			if srv.OpenEpisodes() != 0 {
				t.Errorf("open episodes after terminate = %d", srv.OpenEpisodes())
			}
			return
		}
		// Healthy system: next state stays null; sample its most likely
		// observation for the executed action.
		succs := model.Successors(sc, pomdp.PointBelief(model.NumStates(), nullState), d.Action)
		if len(succs) == 0 {
			t.Fatal("no successors")
		}
		body := fmt.Sprintf(`{"action":%d,"observation":%d}`, d.Action, succs[0].Obs)
		or, err := http.Post(fmt.Sprintf("%s/v1/episodes/%d/observations", hs.URL, start.EpisodeID),
			"application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		or.Body.Close()
		if or.StatusCode != http.StatusOK {
			t.Fatalf("observation status %d at step %d", or.StatusCode, step)
		}
	}
	t.Fatal("episode did not terminate in 50 steps on a healthy system")
}

func TestDeleteEpisodeAndBelief(t *testing.T) {
	srv, _ := newTestServer(t)
	hs := httptest.NewServer(srv)
	defer hs.Close()

	resp, err := http.Post(hs.URL+"/v1/episodes", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(hs.URL + "/v1/episodes/1/belief")
	if err != nil {
		t.Fatal(err)
	}
	var br BeliefResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(br.Belief) == 0 {
		t.Error("empty belief")
	}

	req, err := http.NewRequest(http.MethodDelete, hs.URL+"/v1/episodes/1", nil)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	if dr.StatusCode != http.StatusNoContent {
		t.Errorf("delete status %d", dr.StatusCode)
	}
	if srv.OpenEpisodes() != 0 {
		t.Errorf("open episodes after delete = %d", srv.OpenEpisodes())
	}
}

func TestModelEndpoint(t *testing.T) {
	srv, prep := newTestServer(t)
	hs := httptest.NewServer(srv)
	defer hs.Close()

	resp, err := http.Get(hs.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	var mr ModelResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(mr.States) != prep.Model.NumStates() ||
		len(mr.Actions) != prep.Model.NumActions() ||
		len(mr.Observations) != prep.Model.NumObservations() {
		t.Errorf("model summary %d/%d/%d", len(mr.States), len(mr.Actions), len(mr.Observations))
	}
}

func TestFactoryFailureSurfaces(t *testing.T) {
	ts, err := models.NewTwoServer(models.TwoServerConfig{Coverage: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Model: ts.Model,
		NewController: func() (controller.Controller, pomdp.Belief, error) {
			return nil, nil, errors.New("factory exploded")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	resp, err := http.Post(hs.URL+"/v1/episodes", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("factory failure status %d", resp.StatusCode)
	}
	if srv.OpenEpisodes() != 0 {
		t.Errorf("failed episode left open: %d", srv.OpenEpisodes())
	}
}

// TestMetricsConcurrentWithTraffic scrapes /metrics and calls Restored while
// episodes are being driven concurrently — the regression test (run under
// -race) for the unsynchronized s.restored read /metrics used to perform.
func TestMetricsConcurrentWithTraffic(t *testing.T) {
	srv, _ := newTestServer(t)
	hs := httptest.NewServer(srv)
	defer hs.Close()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if g%2 == 0 {
					resp, err := http.Get(hs.URL + "/metrics")
					if err != nil {
						t.Error(err)
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					_ = srv.Restored()
					continue
				}
				body := strings.NewReader(fmt.Sprintf(`{"client_key":"g%d-i%d"}`, g, i))
				resp, err := http.Post(hs.URL+"/v1/episodes", "application/json", body)
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(g)
	}
	wg.Wait()
}
