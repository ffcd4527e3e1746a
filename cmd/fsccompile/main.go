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
	"bpomdp/internal/modelload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fsccompile:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fsccompile", flag.ContinueOnError)
	offline := modelload.Flags{SaveBootstrap: true}
	offline.Register(fs)
	var (
		depth    = fs.Int("depth", 1, "tree depth the compiled decisions are computed at (recoverd refuses to serve the artifact at another -depth)")
		maxNodes = fs.Int("max-nodes", 0, "cap on compiled FSC nodes (0 = default)")
		improve  = fs.Bool("improve", false, "keep improving the bound during compilation (tighter gaps, but served decisions are then only mean-cost-equivalent, not per-decision identical, to a tree over the frozen set)")
		out      = fs.String("out", "model.fsc", "write the compiled artifact here")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	prep, err := offline.Prepare()
	if err != nil {
		return err
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
