package controller_test

import (
	"fmt"
	"log"

	"bpomdp/internal/controller"
	"bpomdp/internal/core"
	"bpomdp/internal/modelload"
	"bpomdp/internal/rng"
)

// ExampleBounded_UseFSC compiles the bounded controller's policy over a
// frozen bound set into a finite-state controller and serves a decision from
// the table tier. At gap threshold 0 only nodes whose bound was already tight at
// compile time are served, so every table hit is bit-identical to the
// Max-Avg tree's decision; everything else — off-graph beliefs, wide-gap
// nodes — falls back to the tree over the same bounds.
func ExampleBounded_UseFSC() {
	rm, err := modelload.Load("emn")
	if err != nil {
		log.Fatal(err)
	}
	prep, err := core.Prepare(rm, core.PrepareOptions{OperatorResponseTime: 21600})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := prep.Bootstrap(10, controller.VariantAverage, 2, rng.New(7)); err != nil {
		log.Fatal(err)
	}
	// HSVI refinement collapses compile-time gaps to rounding noise, so at
	// the near-zero threshold below every node becomes servable from the
	// table.
	if _, err := prep.RefineBounds(core.RefineConfig{}); err != nil {
		log.Fatal(err)
	}

	fsc, err := prep.CompileFSC(core.FSCConfig{Depth: 1})
	if err != nil {
		log.Fatal(err)
	}
	dec, err := prep.NewFSCDecider(fsc, core.ControllerConfig{Depth: 1}, 1e-9)
	if err != nil {
		log.Fatal(err)
	}

	initial, err := prep.InitialBelief()
	if err != nil {
		log.Fatal(err)
	}
	if err := dec.Reset(initial); err != nil {
		log.Fatal(err)
	}
	d, err := dec.Decide()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("action: %s\n", prep.Model.M.ActionName(d.Action))
	fmt.Printf("table hits: %d, tree fallbacks: %d\n", fsc.Hits(), fsc.Fallbacks())

	// Output:
	// action: observe
	// table hits: 1, tree fallbacks: 0
}
