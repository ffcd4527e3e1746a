package client

import (
	"net/http/httptest"
	"sync"
	"testing"

	"bpomdp/internal/controller"
	"bpomdp/internal/core"
	"bpomdp/internal/emn"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
	"bpomdp/internal/server"
	"bpomdp/internal/sim"
)

// TestImproveOnlineConcurrentEpisodes serves EMN the way recoverd does by
// default: every episode's controller improves the one shared bound set
// online. Eight client episodes run at once; under -race, controllers that
// did not serialise on the set's lock would race in its mutation and leaf
// scans.
func TestImproveOnlineConcurrentEpisodes(t *testing.T) {
	compiled, err := emn.Build(emn.Config{})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := core.Prepare(compiled.Recovery, core.PrepareOptions{OperatorResponseTime: emn.OperatorResponseTime})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Bootstrap(10, controller.VariantAverage, 2, rng.New(1)); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Model: prep.Model,
		NewController: func() (controller.Controller, pomdp.Belief, error) {
			ctrl, err := prep.NewController(core.ControllerConfig{Depth: 1, ImproveOnline: true})
			if err != nil {
				return nil, nil, err
			}
			initial, err := prep.InitialBelief()
			return ctrl, initial, err
		},
		// Pooled batch deciders read the same set while episodes mutate it.
		NewBatchDecider: func() (controller.BatchDecider, error) {
			return prep.NewController(core.ControllerConfig{Depth: 1})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	defer srv.Close()
	c, err := New(hs.URL, hs.Client())
	if err != nil {
		t.Fatal(err)
	}
	initial, err := prep.InitialBelief()
	if err != nil {
		t.Fatal(err)
	}

	faults := []string{"zombie:S1", "zombie:S2", "zombie:DB", "crash:HG", "crash:S1", "crash:DB", "zombie:HG", "crash:S2"}
	root := rng.New(7)
	var wg sync.WaitGroup
	for i, name := range faults {
		fault, ok := compiled.StateIndex[name]
		if !ok {
			t.Fatalf("no EMN state %q", name)
		}
		stream := root.SplitN("ep", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			runner, err := sim.NewRunner(compiled.Recovery, 500)
			if err != nil {
				t.Error(err)
				return
			}
			ep, err := c.StartEpisode()
			if err != nil {
				t.Error(err)
				return
			}
			res, err := runner.RunEpisode(ep, nil, fault, stream)
			if err != nil {
				t.Errorf("episode %s: %v", name, err)
				return
			}
			if !res.Recovered {
				t.Errorf("episode %s did not recover", name)
			}
			if _, err := c.DecideBatch([]pomdp.Belief{initial}); err != nil {
				t.Errorf("batch beside episode %s: %v", name, err)
			}
		}()
	}
	wg.Wait()
}
