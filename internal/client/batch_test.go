package client

import (
	"bufio"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"bpomdp/internal/controller"
	"bpomdp/internal/core"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
	"bpomdp/internal/server"
	"bpomdp/internal/sim"
	"bpomdp/internal/stats"
)

// statsAcc zeroes the wall-clock-derived AlgoTimeMs accumulator before
// bit-for-bit campaign comparison.
type statsAcc = stats.Accumulator

// batchHarness is harness plus the batch-decide endpoint, returning the
// Prepared so tests can build twin local controllers.
func batchHarness(t *testing.T) (*Client, *core.Prepared, *core.RecoveryModel) {
	t.Helper()
	prep, rm := twoServerPrep(t)
	srv, err := server.New(server.Config{
		Model:         prep.Model,
		NewController: boundedFactory(prep),
		NewBatchDecider: func() (controller.BatchDecider, error) {
			return prep.NewController(core.ControllerConfig{Depth: 1})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	c, err := New(hs.URL, hs.Client())
	if err != nil {
		t.Fatal(err)
	}
	return c, prep, rm
}

// TestClientDecideBatchRoundTrip: remote batch decisions equal a twin local
// controller's, through JSON and back.
func TestClientDecideBatchRoundTrip(t *testing.T) {
	c, prep, _ := batchHarness(t)
	n := prep.Model.NumStates()
	stream := rng.New(37)
	beliefs := make([]pomdp.Belief, 7)
	for i := range beliefs {
		pi := make(pomdp.Belief, n)
		sum := 0.0
		for s := range pi {
			pi[s] = stream.Float64()
			sum += pi[s]
		}
		for s := range pi {
			pi[s] /= sum
		}
		beliefs[i] = pi
	}
	got, err := c.DecideBatch(beliefs)
	if err != nil {
		t.Fatal(err)
	}

	local, err := prep.NewController(core.ControllerConfig{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]controller.Decision, len(beliefs))
	if err := local.DecideBatch(beliefs, want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("remote batch decisions diverge from local:\nremote: %+v\nlocal:  %+v", got, want)
	}

	if _, err := c.DecideBatch(nil); err == nil {
		t.Error("empty batch accepted")
	}
}

// batchDecisionsTotal reads recoverd_batch_decisions_total from the
// server's /metrics.
func batchDecisionsTotal(t *testing.T, c *Client) float64 {
	t.Helper()
	resp, err := http.Get(c.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "recoverd_batch_decisions_total "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	t.Fatalf("recoverd_batch_decisions_total not in /metrics (scan error %v)", sc.Err())
	return 0
}

// TestClientDecideBatchDedupe: the client sends each bit-distinct belief
// once — a +0/−0 pair stays two beliefs — and every duplicate gets its
// belief's decision, equal bit for bit to a twin local controller's.
func TestClientDecideBatchDedupe(t *testing.T) {
	c, prep, _ := batchHarness(t)
	local, err := prep.NewController(core.ControllerConfig{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := prep.Model.NumStates()
	initial, err := prep.InitialBelief()
	if err != nil {
		t.Fatal(err)
	}
	// Two beliefs equal in value that differ in the sign of a zero.
	pos := make(pomdp.Belief, n)
	pos[0], pos[1] = 0.25, 0.75
	neg := pos.Clone()
	neg[n-1] = math.Copysign(0, -1)
	other := make(pomdp.Belief, n)
	other[1], other[2] = 0.5, 0.5

	same := make([]pomdp.Belief, 16)
	for i := range same {
		same[i] = initial.Clone()
	}
	for _, tc := range []struct {
		name     string
		beliefs  []pomdp.Belief
		distinct int
	}{
		{"repeats", []pomdp.Belief{initial, pos, initial.Clone(), other, pos.Clone(), initial}, 3},
		{"signed zeros", []pomdp.Belief{pos, neg, neg.Clone(), pos.Clone()}, 2},
		{"16 identical", same, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := batchDecisionsTotal(t, c)
			got, err := c.DecideBatch(tc.beliefs)
			if err != nil {
				t.Fatal(err)
			}
			if sent := batchDecisionsTotal(t, c) - before; sent != float64(tc.distinct) {
				t.Errorf("server decided %v beliefs, want the %d distinct ones", sent, tc.distinct)
			}
			want := make([]controller.Decision, len(tc.beliefs))
			if err := local.DecideBatch(tc.beliefs, want); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				g, w := got[i], want[i]
				if g.Action != w.Action || g.Terminate != w.Terminate || math.Float64bits(g.Value) != math.Float64bits(w.Value) {
					t.Errorf("belief %d: remote %+v, local %+v", i, g, w)
				}
			}
		})
	}
}

// TestClientDecideBatchErrorIndex: a server error about a belief of a batch
// with duplicates names the belief by its index in the caller's batch, not
// among the distinct beliefs sent.
func TestClientDecideBatchErrorIndex(t *testing.T) {
	c, prep, _ := batchHarness(t)
	n := prep.Model.NumStates()
	initial, err := prep.InitialBelief()
	if err != nil {
		t.Fatal(err)
	}
	notDist := make(pomdp.Belief, n)
	notDist[0] = 2
	short := make(pomdp.Belief, n-1)
	short[0] = 1
	for _, tc := range []struct {
		name    string
		beliefs []pomdp.Belief
		want    string
	}{
		{"not a distribution", []pomdp.Belief{initial, initial.Clone(), notDist}, "belief 2 is not a distribution"},
		{"short", []pomdp.Belief{initial, initial, initial, short}, "belief 3 has length"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.DecideBatch(tc.beliefs)
			if StatusCode(err) != http.StatusBadRequest || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("got %v (status %d), want a 400 naming %q", err, StatusCode(err), tc.want)
			}
		})
	}
}

// TestClientDecideBatchConcurrent: concurrent batch rounds share the
// client's pooled scratch without mixing up each other's beliefs or
// decisions.
func TestClientDecideBatchConcurrent(t *testing.T) {
	c, prep, _ := batchHarness(t)
	local, err := prep.NewController(core.ControllerConfig{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := prep.Model.NumStates()
	stream := rng.New(41)
	const workers = 4
	batches := make([][]pomdp.Belief, workers)
	wants := make([][]controller.Decision, workers)
	for w := range batches {
		for len(batches[w]) < 8 {
			pi := make(pomdp.Belief, n)
			pi[stream.IntN(n-1)] = 1
			// Every belief comes twice, so each round also copies decisions
			// back to duplicates.
			batches[w] = append(batches[w], pi, pi.Clone())
		}
		wants[w] = make([]controller.Decision, len(batches[w]))
		if err := local.DecideBatch(batches[w], wants[w]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := range batches {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for range 20 {
				got, err := c.DecideBatch(batches[w])
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, wants[w]) {
					t.Errorf("worker %d: remote %+v, local %+v", w, got, wants[w])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestRemoteBatchedCampaign drives the campaign engine's batched stepping
// mode through the remote daemon: the BatchDecider adapter (with the
// transformed model attached for the belief filters) must reproduce the
// local batched campaign exactly — the endpoint is stateless and the local
// and remote deciders share the same bootstrapped bound.
func TestRemoteBatchedCampaign(t *testing.T) {
	c, prep, rm := batchHarness(t)
	runner, err := sim.NewRunner(rm, 500)
	if err != nil {
		t.Fatal(err)
	}
	initial, err := prep.InitialBelief()
	if err != nil {
		t.Fatal(err)
	}
	faults := []int{1, 2}
	const episodes = 24

	localCtrl, err := prep.NewController(core.ControllerConfig{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	local, err := runner.RunCampaignOpts(localCtrl, initial, faults, episodes, rng.New(47), sim.CampaignOptions{
		Workers: 1, BatchSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := runner.RunCampaignOpts(nil, initial, faults, episodes, rng.New(47), sim.CampaignOptions{
		Workers: 1, BatchSize: 8,
		BatchDecider: c.BatchDecider().WithModel(prep.Model),
	})
	if err != nil {
		t.Fatal(err)
	}
	local.Name, remote.Name = "", ""
	local.AlgoTimeMs, remote.AlgoTimeMs = statsAcc{}, statsAcc{}
	if !reflect.DeepEqual(local, remote) {
		t.Errorf("remote batched campaign diverges from local:\nlocal:  %+v\nremote: %+v", local, remote)
	}
}
