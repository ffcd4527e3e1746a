package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"bpomdp/internal/controller"
	"bpomdp/internal/core"
	"bpomdp/internal/models"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
)

// panicController panics on Decide, to exercise the recovery middleware.
type panicController struct{ belief pomdp.Belief }

func (p *panicController) Reset(initial pomdp.Belief) error { p.belief = initial.Clone(); return nil }
func (p *panicController) Decide() (controller.Decision, error) {
	panic("scripted controller panic")
}
func (p *panicController) Observe(int, int) error { return nil }
func (p *panicController) Belief() pomdp.Belief   { return p.belief.Clone() }
func (p *panicController) Name() string           { return "panic" }

// testPrepared builds the shared two-server Prepared used by resilience
// tests.
func testPrepared(t *testing.T) *core.Prepared {
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
	return prep
}

func boundedFactory(prep *core.Prepared) Factory {
	return func() (controller.Controller, pomdp.Belief, error) {
		ctrl, err := prep.NewController(core.ControllerConfig{Depth: 1})
		if err != nil {
			return nil, nil, err
		}
		initial, err := prep.InitialBelief()
		return ctrl, initial, err
	}
}

func metricsBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestPanicBecomesInternalError(t *testing.T) {
	prep := testPrepared(t)
	srv, err := New(Config{
		Model: prep.Model,
		NewController: func() (controller.Controller, pomdp.Belief, error) {
			initial, err := prep.InitialBelief()
			return &panicController{}, initial, err
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
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("start status %d", resp.StatusCode)
	}
	resp, err = http.Get(hs.URL + "/v1/episodes/1/decision")
	if err != nil {
		t.Fatal(err)
	}
	var apiErr ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("panic status %d", resp.StatusCode)
	}
	if !strings.Contains(apiErr.Error, "panic") {
		t.Errorf("panic error body %q", apiErr.Error)
	}
	if !strings.Contains(metricsBody(t, hs.URL), "recoverd_panics_total 1") {
		t.Error("panics_total not incremented")
	}
}

// within runs f and fails the test if f has not returned after d, so a
// wedged lock fails the test instead of hanging it.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s still blocked after %v", what, d)
	}
}

// TestPanicDoesNotWedgeEpisode: a controller panic fails only its own
// request. The episode's lock is released, so the idle sweep, a new start
// and Close all carry on, and the panic is counted once.
func TestPanicDoesNotWedgeEpisode(t *testing.T) {
	prep := testPrepared(t)
	srv, err := New(Config{
		Model: prep.Model,
		NewController: func() (controller.Controller, pomdp.Belief, error) {
			initial, err := prep.InitialBelief()
			return &panicController{}, initial, err
		},
		EpisodeTTL: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	hc := &http.Client{Timeout: 2 * time.Second}

	resp, err := hc.Post(hs.URL+"/v1/episodes", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("start status %d", resp.StatusCode)
	}
	resp, err = hc.Get(hs.URL + "/v1/episodes/1/decision")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic status %d, want 500", resp.StatusCode)
	}

	within(t, time.Second, "Sweep after a controller panic", func() { srv.Sweep() })
	within(t, 3*time.Second, "start after a controller panic", func() {
		resp, err := hc.Post(hs.URL+"/v1/episodes", "application/json", nil)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Errorf("start after panic: status %d, want 201", resp.StatusCode)
		}
	})
	if got := metricValue(t, metricsBody(t, hs.URL), "recoverd_panics_total"); got != 1 {
		t.Errorf("recoverd_panics_total %v, want 1", got)
	}
	within(t, time.Second, "Close after a controller panic", func() { srv.Close() })
}

func TestBodyLimit(t *testing.T) {
	prep := testPrepared(t)
	srv, err := New(Config{Model: prep.Model, NewController: boundedFactory(prep), MaxBodyBytes: 128})
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

	huge := fmt.Sprintf(`{"action":0,"observation":0,"actionName":%q}`, strings.Repeat("x", 4096))
	resp, err = http.Post(hs.URL+"/v1/episodes/1/observations", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status %d", resp.StatusCode)
	}

	hugeStart := fmt.Sprintf(`{"clientKey":%q}`, strings.Repeat("k", 4096))
	resp, err = http.Post(hs.URL+"/v1/episodes", "application/json", strings.NewReader(hugeStart))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized start body status %d, want 413", resp.StatusCode)
	}
}

func TestRetryAfterOnEpisodeCap(t *testing.T) {
	prep := testPrepared(t)
	srv, err := New(Config{
		Model:         prep.Model,
		NewController: boundedFactory(prep),
		MaxEpisodes:   1,
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
	resp, err = http.Post(hs.URL+"/v1/episodes", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After %q, want 1", got)
	}
}

func TestStartIdempotencyKey(t *testing.T) {
	prep := testPrepared(t)
	srv, err := New(Config{Model: prep.Model, NewController: boundedFactory(prep)})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	start := func() (int, StartResponse) {
		resp, err := http.Post(hs.URL+"/v1/episodes", "application/json",
			strings.NewReader(`{"clientKey":"k-123"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out StartResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}
	code1, first := start()
	code2, second := start()
	if code1 != http.StatusCreated || code2 != http.StatusOK {
		t.Errorf("statuses %d/%d, want 201/200", code1, code2)
	}
	if first.EpisodeID != second.EpisodeID {
		t.Errorf("duplicate start created a second episode: %d vs %d", first.EpisodeID, second.EpisodeID)
	}
	if srv.OpenEpisodes() != 1 {
		t.Errorf("open episodes = %d", srv.OpenEpisodes())
	}
	if !strings.Contains(metricsBody(t, hs.URL), "recoverd_deduped_starts_total 1") {
		t.Error("deduped_starts_total not incremented")
	}
}

func TestObservationStepIndexDedupe(t *testing.T) {
	prep := testPrepared(t)
	srv, err := New(Config{Model: prep.Model, NewController: boundedFactory(prep)})
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

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(hs.URL+"/v1/episodes/1/observations", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	steps := func() int {
		t.Helper()
		resp, err := http.Get(hs.URL + "/v1/episodes/1")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st StatusResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.Steps
	}

	obs := `{"actionName":"observe","observationName":"obs-a-failed","stepIndex":0}`
	if code := post(obs); code != http.StatusOK {
		t.Fatalf("first observation status %d", code)
	}
	if got := steps(); got != 1 {
		t.Fatalf("steps after first observation = %d", got)
	}
	// Retransmit of step 0: acknowledged, not re-applied.
	if code := post(obs); code != http.StatusOK {
		t.Errorf("retransmit status %d", code)
	}
	if got := steps(); got != 1 {
		t.Errorf("steps after retransmit = %d (duplicate was applied)", got)
	}
	// A step from the future is a protocol error.
	if code := post(`{"actionName":"observe","observationName":"obs-a-failed","stepIndex":5}`); code != http.StatusConflict {
		t.Errorf("out-of-order status %d", code)
	}
	if !strings.Contains(metricsBody(t, hs.URL), "recoverd_deduped_observations_total 1") {
		t.Error("deduped_observations_total not incremented")
	}
}

func TestDecisionCachedPerStep(t *testing.T) {
	prep := testPrepared(t)
	srv, err := New(Config{Model: prep.Model, NewController: boundedFactory(prep)})
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

	get := func() []byte {
		t.Helper()
		resp, err := http.Get(hs.URL + "/v1/episodes/1/decision")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	first := get()
	second := get()
	if string(first) != string(second) {
		t.Errorf("retried decision differs:\n%s\n%s", first, second)
	}
	if srv.m.decisions.Value() != 1 {
		t.Errorf("decisions_total = %d, want 1 (second call must be served from cache)", srv.m.decisions.Value())
	}
}

func TestTerminalDecisionSurvivesAsTombstone(t *testing.T) {
	prep := testPrepared(t)
	srv, err := New(Config{Model: prep.Model, NewController: boundedFactory(prep)})
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

	// Drive to termination with healthy-system observations.
	model := prep.Model
	sc := pomdp.NewScratch(model)
	var final DecisionResponse
	for step := 0; step < 50; step++ {
		resp, err := http.Get(hs.URL + "/v1/episodes/1/decision")
		if err != nil {
			t.Fatal(err)
		}
		var d DecisionResponse
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if d.Terminate {
			final = d
			break
		}
		succs := model.Successors(sc, pomdp.PointBelief(model.NumStates(), 0), d.Action)
		body := fmt.Sprintf(`{"action":%d,"observation":%d}`, d.Action, succs[0].Obs)
		or, err := http.Post(hs.URL+"/v1/episodes/1/observations", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		or.Body.Close()
	}
	if !final.Terminate {
		t.Fatal("episode did not terminate")
	}
	if srv.OpenEpisodes() != 0 {
		t.Fatalf("open episodes after terminate = %d", srv.OpenEpisodes())
	}

	// A client whose terminal response was lost retries and still gets it.
	resp, err = http.Get(hs.URL + "/v1/episodes/1/decision")
	if err != nil {
		t.Fatal(err)
	}
	var replayed DecisionResponse
	if err := json.NewDecoder(resp.Body).Decode(&replayed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || replayed != final {
		t.Errorf("tombstone decision %+v (status %d), want %+v", replayed, resp.StatusCode, final)
	}
}

func TestTTLEviction(t *testing.T) {
	prep := testPrepared(t)
	// The fake clock is guarded because the eviction janitor may read it
	// concurrently with the test advancing it.
	var mu sync.Mutex
	now := time.Now()
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }
	srv, err := New(Config{
		Model:         prep.Model,
		NewController: boundedFactory(prep),
		EpisodeTTL:    time.Minute,
		now: func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return now
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()

	resp, err := http.Post(hs.URL+"/v1/episodes", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if srv.OpenEpisodes() != 1 {
		t.Fatalf("open episodes = %d", srv.OpenEpisodes())
	}
	if n := srv.Sweep(); n != 0 {
		t.Fatalf("fresh episode evicted (%d)", n)
	}
	advance(2 * time.Minute)
	if n := srv.Sweep(); n != 1 {
		t.Fatalf("Sweep evicted %d, want 1", n)
	}
	if srv.OpenEpisodes() != 0 {
		t.Errorf("open episodes after eviction = %d", srv.OpenEpisodes())
	}
	if !strings.Contains(metricsBody(t, hs.URL), "recoverd_episodes_evicted_total 1") {
		t.Error("episodes_evicted_total not incremented")
	}
}

// metricValue extracts one exact series value from a /metrics body.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("series %s: unparsable value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %s not found in metrics body:\n%s", series, body)
	return 0
}

// batchBuckets parses the batch handler's latency-histogram bucket series
// from a /metrics body, in rendered (ascending-le) order.
func batchBuckets(t *testing.T, body string) []float64 {
	t.Helper()
	const prefix = `recoverd_request_duration_seconds_bucket{handler="batch",le="`
	var out []float64
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		i := strings.LastIndex(line, " ")
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		t.Fatalf("no batch-handler bucket series in metrics body:\n%s", body)
	}
	return out
}

// TestMetricsConcurrentWithBatchDecides: scraping /metrics while batch
// decides hammer the registry must be race-free (this test is the -race
// probe for the shared registry), every scrape must show cumulative bucket
// counts that never move backwards across scrapes, and once the writers
// quiesce the histogram count must equal the batch request counter and the
// batch decision counter must equal requests times batch width.
func TestMetricsConcurrentWithBatchDecides(t *testing.T) {
	srv, prep := newBatchTestServer(t, nil)
	hs := httptest.NewServer(srv)
	defer hs.Close()

	n := prep.Model.NumStates()
	uniform := make([]float64, n)
	for i := range uniform {
		uniform[i] = 1 / float64(n)
	}
	req := BatchDecideRequest{Beliefs: [][]float64{uniform, uniform, uniform}}
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	const writers, posts = 4, 12
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < posts; i++ {
				resp, err := http.Post(hs.URL+"/v1/decide/batch", "application/json", strings.NewReader(string(payload)))
				if err != nil {
					t.Errorf("batch post: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("batch status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()

	var prev []float64
scrape:
	for {
		body := metricsBody(t, hs.URL)
		got := batchBuckets(t, body)
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				t.Fatalf("bucket counts not cumulative within a scrape: %v", got)
			}
		}
		if len(prev) == len(got) {
			for i := range got {
				if got[i] < prev[i] {
					t.Fatalf("bucket %d moved backwards across scrapes: %v -> %v", i, prev, got)
				}
			}
		}
		prev = got
		select {
		case <-done:
			break scrape
		default:
		}
	}

	body := metricsBody(t, hs.URL)
	requests := metricValue(t, body, "recoverd_batch_decide_requests_total")
	if requests != writers*posts {
		t.Errorf("batch request counter %v, want %d", requests, writers*posts)
	}
	hcount := metricValue(t, body, `recoverd_request_duration_seconds_count{handler="batch"}`)
	if hcount != requests {
		t.Errorf("batch latency histogram count %v does not match request counter %v", hcount, requests)
	}
	final := batchBuckets(t, body)
	if inf := final[len(final)-1]; inf != hcount {
		t.Errorf("le=+Inf bucket %v does not match histogram count %v", inf, hcount)
	}
	decided := metricValue(t, body, "recoverd_batch_decisions_total")
	if want := requests * float64(len(req.Beliefs)); decided != want {
		t.Errorf("batch decision counter %v, want %v", decided, want)
	}
}

// TestMetricsSeriesPreserved: the registry-rendered /metrics must keep every
// series name the hand-rolled exporter exposed, serve the open-episode count
// from the registry gauge, and expose a latency histogram per instrumented
// handler once each has served a request.
func TestMetricsSeriesPreserved(t *testing.T) {
	srv, prep := newBatchTestServer(t, nil)
	hs := httptest.NewServer(srv)
	defer hs.Close()

	// One request through each instrumented handler.
	resp, err := http.Post(hs.URL+"/v1/episodes", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(hs.URL + "/v1/episodes/1/decision")
	if err != nil {
		t.Fatal(err)
	}
	var d DecisionResponse
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	model := prep.Model
	succs := model.Successors(pomdp.NewScratch(model), pomdp.PointBelief(model.NumStates(), 0), d.Action)
	body := fmt.Sprintf(`{"action":%d,"observation":%d}`, d.Action, succs[0].Obs)
	resp, err = http.Post(hs.URL+"/v1/episodes/1/observations", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	n := model.NumStates()
	uniform := make([]float64, n)
	for i := range uniform {
		uniform[i] = 1 / float64(n)
	}
	payload, err := json.Marshal(BatchDecideRequest{Beliefs: [][]float64{uniform}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(hs.URL+"/v1/decide/batch", "application/json", strings.NewReader(string(payload)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	mb := metricsBody(t, hs.URL)
	legacy := []string{
		"recoverd_episodes_started_total",
		"recoverd_episodes_terminated_total",
		"recoverd_episodes_evicted_total",
		"recoverd_episodes_resumed_total",
		"recoverd_decisions_total",
		"recoverd_observations_total",
		"recoverd_deduped_starts_total",
		"recoverd_deduped_observations_total",
		"recoverd_batch_decide_requests_total",
		"recoverd_batch_decisions_total",
		"recoverd_panics_total",
		"recoverd_checkpoint_errors_total",
	}
	for _, name := range legacy {
		if !strings.Contains(mb, "\n"+name+" ") {
			t.Errorf("legacy series %s missing from /metrics", name)
		}
	}
	if got := metricValue(t, mb, "recoverd_episodes_open"); got != float64(srv.OpenEpisodes()) {
		t.Errorf("recoverd_episodes_open %v, want %d", got, srv.OpenEpisodes())
	}
	if !strings.Contains(mb, "# TYPE recoverd_request_duration_seconds histogram") {
		t.Error("latency histogram family missing TYPE header")
	}
	for _, h := range []string{"start", "decide", "observe", "batch"} {
		series := fmt.Sprintf(`recoverd_request_duration_seconds_count{handler=%q}`, h)
		if got := metricValue(t, mb, series); got < 1 {
			t.Errorf("handler %s latency histogram count %v, want >= 1", h, got)
		}
	}
}
