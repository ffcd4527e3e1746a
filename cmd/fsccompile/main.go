// Command fsccompile compiles a bounded recovery controller into a
// finite-state controller artifact (schema bpomdp.fsc/v1) that recoverd and
// the simulator can serve as a table-lookup fast path.
//
// The compiler loads a recovery model, warms the RA-Bound with bootstrap
// episodes (or loads a previously saved bound set), and then runs the exact
// Max-Avg controller over the belief space reachable from the initial
// belief, recording each visited belief's decision, its compile-time bound
// gap, and its per-observation successor edges.
//
// Usage:
//
//	fsccompile -model emn -bootstrap 10 -depth 1 -out emn.fsc
//	fsccompile -model my-system.json -bounds bounds.json -out my.fsc
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"bpomdp/internal/controller"
	"bpomdp/internal/core"
	"bpomdp/internal/emn"
	"bpomdp/internal/modelload"
	"bpomdp/internal/rng"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fsccompile:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fsccompile", flag.ContinueOnError)
	var (
		modelName  = fs.String("model", "emn", `model: "emn", "twoserver", or a path to a model JSON`)
		top        = fs.Float64("top", emn.OperatorResponseTime, "operator response time t_op in seconds")
		bootstrap  = fs.Int("bootstrap", 10, "bootstrap episodes to warm the bound before compiling")
		bootDepth  = fs.Int("bootstrap-depth", 2, "tree depth during bootstrap")
		depth      = fs.Int("depth", 1, "tree depth the compiled decisions are computed at (recoverd refuses to serve the artifact at another -depth)")
		seed       = fs.Uint64("seed", 1, "bootstrap RNG seed")
		boundsPath = fs.String("bounds", "", "load the bound set from this JSON file instead of bootstrapping (and save it back after bootstrap when it does not exist)")
		maxNodes   = fs.Int("max-nodes", 0, "cap on compiled FSC nodes (0 = default)")
		improve    = fs.Bool("improve", false, "keep improving the bound during compilation (tighter gaps, but served decisions are then only mean-cost-equivalent, not per-decision identical, to a tree over the frozen set)")
		out        = fs.String("out", "model.fsc", "write the compiled artifact here")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	rm, err := modelload.Load(*modelName)
	if err != nil {
		return err
	}
	prep, err := core.Prepare(rm, core.PrepareOptions{OperatorResponseTime: *top})
	if err != nil {
		return err
	}
	log.Printf("model %q: %d states, %d actions, %d observations; regime %s",
		*modelName, prep.Model.NumStates(), prep.Model.NumActions(), prep.Model.NumObservations(), prep.Regime)

	loaded := false
	if *boundsPath != "" {
		if loaded, err = prep.LoadBounds(*boundsPath); err != nil {
			return err
		}
		if loaded {
			log.Printf("loaded %d bound vectors from %s", prep.Set.Size(), *boundsPath)
		}
	}
	if !loaded && *bootstrap > 0 {
		start := time.Now()
		stats, err := prep.Bootstrap(*bootstrap, controller.VariantAverage, *bootDepth, rng.New(*seed))
		if err != nil {
			return err
		}
		last := stats[len(stats)-1]
		log.Printf("bootstrapped %d episodes in %v: bound at uniform %.2f, %d vectors",
			*bootstrap, time.Since(start).Round(time.Millisecond), last.BoundAtUniform, last.Vectors)
		if *boundsPath != "" {
			if err := prep.SaveBounds(*boundsPath); err != nil {
				return err
			}
			log.Printf("saved bound set to %s", *boundsPath)
		}
	}

	start := time.Now()
	fsc, err := prep.CompileFSC(core.FSCConfig{Depth: *depth, MaxNodes: *maxNodes, Improve: *improve})
	if err != nil {
		return err
	}
	log.Printf("compiled %d nodes, %d edges (%d missing) in %v: max bound gap %.6g",
		fsc.NumNodes(), fsc.NumEdges(), fsc.MissingEdges(), time.Since(start).Round(time.Millisecond), fsc.MaxGap())

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := fsc.Encode(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", *out, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	info, err := os.Stat(*out)
	if err != nil {
		return err
	}
	log.Printf("wrote %s (%d bytes, schema %s)", *out, info.Size(), controller.FSCSchema)
	return nil
}
