// Remote recovery: run the controller as a service and drive it over HTTP.
//
// This example boots the recovery daemon in-process (the same server
// cmd/recoverd serves), starts an episode through the typed HTTP client,
// and lets the fault-injection simulator play the system side — monitors
// post observations, the service answers with recovery actions. Because
// the client's Episode implements the same Controller interface as the
// in-process controllers, the simulator cannot tell the difference.
//
// Run with:
//
//	go run ./examples/remote-recovery
package main

import (
	"fmt"
	"net/http/httptest"
	"os"

	"bpomdp/internal/client"
	"bpomdp/internal/controller"
	"bpomdp/internal/core"
	"bpomdp/internal/emn"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
	"bpomdp/internal/server"
	"bpomdp/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "remote-recovery:", err)
		os.Exit(1)
	}
}

func run() error {
	// Server side: prepare the EMN model and expose bounded controllers.
	compiled, err := emn.Build(emn.Config{})
	if err != nil {
		return err
	}
	prep, err := core.Prepare(compiled.Recovery, core.PrepareOptions{
		OperatorResponseTime: emn.OperatorResponseTime,
	})
	if err != nil {
		return err
	}
	if _, err := prep.Bootstrap(10, controller.VariantAverage, 2, rng.New(1)); err != nil {
		return err
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
	})
	if err != nil {
		return err
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	fmt.Printf("recovery service listening on %s\n", hs.URL)

	// Client side: the simulator drives recovery through the HTTP API.
	c, err := client.New(hs.URL, hs.Client())
	if err != nil {
		return err
	}
	if err := c.Healthy(); err != nil {
		return err
	}
	model, err := c.Model()
	if err != nil {
		return err
	}
	fmt.Printf("remote model: %d states, %d actions\n\n", len(model.States), len(model.Actions))

	runner, err := sim.NewRunner(compiled.Recovery, 500)
	if err != nil {
		return err
	}
	root := rng.New(7)
	faults := []string{"zombie:S1", "zombie:DB", "crash:HG"}
	for i, faultName := range faults {
		fault := compiled.StateIndex[faultName]
		ep, err := c.StartEpisode()
		if err != nil {
			return err
		}
		res, err := runner.RunEpisode(ep, nil, fault, root.SplitN("ep", i))
		if err != nil {
			return err
		}
		// One round trip per monitor output, each answered with the next
		// action: the first output opens the episode in the same request.
		fmt.Printf("episode %d (%s): recovered=%v cost=%.1f actions=%d monitorCalls=%d httpRoundTrips=%d\n",
			ep.ID(), faultName, res.Recovered, res.Cost, res.Actions, res.MonitorCalls,
			res.MonitorCalls)
	}
	return nil
}
