// Command boundsrefine runs HSVI-style offline bound refinement over a
// recovery model and writes the refined lower-bound set (and optionally the
// paired sawtooth upper bound) as JSON artifacts recoverd and fsccompile can
// load.
//
// The refiner pairs the RA-Bound hyperplane set — optionally warmed by
// bootstrap episodes — with a QMDP-cornered sawtooth upper bound, explores
// beliefs forward from the initial belief by the gap-weighted HSVI rule, and
// backs up both bounds at every visited point until the root gap drops to
// -gap or the trial budget runs out. Tight bounds shrink the Max-Avg tree's
// effective work and drive compiled-FSC node gaps toward zero, widening the
// table-hit fast path at strict serving thresholds.
//
// Usage:
//
//	boundsrefine -model emn -bootstrap 10 -out bounds.json
//	boundsrefine -model my-system.json -gap 1e-9 -out bounds.json -upper-out upper.json
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
		fmt.Fprintln(os.Stderr, "boundsrefine:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("boundsrefine", flag.ContinueOnError)
	var (
		modelName = fs.String("model", "emn", `model: "emn", "twoserver", or a path to a model JSON`)
		top       = fs.Float64("top", emn.OperatorResponseTime, "operator response time t_op in seconds")
		bootstrap = fs.Int("bootstrap", 10, "bootstrap episodes to warm the lower bound before refining (0 = refine from the raw RA-Bound)")
		bootDepth = fs.Int("bootstrap-depth", 2, "tree depth during bootstrap")
		seed      = fs.Uint64("seed", 1, "bootstrap RNG seed")
		inPath    = fs.String("bounds", "", "load the lower-bound set from this JSON file instead of bootstrapping")
		gap       = fs.Float64("gap", 1e-6, "target root bound gap refinement converges to")
		trials    = fs.Int("trials", 0, "cap on exploration trials (0 = default)")
		depth     = fs.Int("depth", 0, "cap on per-trial exploration depth (0 = default)")
		out       = fs.String("out", "bounds.json", "write the refined lower-bound set here")
		upperOut  = fs.String("upper-out", "", "also write the refined sawtooth upper bound here (optional)")
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
	if *inPath != "" {
		if loaded, err = prep.LoadBounds(*inPath); err != nil {
			return err
		}
		if loaded {
			log.Printf("loaded %d bound vectors from %s", prep.Set.Size(), *inPath)
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
	}

	rep, err := prep.RefineBounds(core.RefineConfig{Epsilon: *gap, MaxTrials: *trials, MaxDepth: *depth})
	if err != nil {
		return fmt.Errorf("refine: %w", err)
	}
	log.Printf("refined in %v: root gap %.6g -> %.6g over %d trials (%d backups, +%d planes, +%d points, deepest %d, converged=%v)",
		rep.Wall.Round(time.Millisecond), rep.InitialGap, rep.FinalGap,
		rep.Trials, rep.Backups, rep.PlanesAdded, rep.PointsAdded, rep.DeepestDepth, rep.Converged)
	if !rep.Converged {
		log.Printf("warning: trial budget exhausted before the gap target; rerun with -trials/-depth to tighten further")
	}

	if err := prep.SaveBounds(*out); err != nil {
		return err
	}
	log.Printf("wrote %d lower-bound planes to %s", prep.Set.Size(), *out)

	if *upperOut != "" {
		if err := core.WriteJSONFile(*upperOut, prep.Upper); err != nil {
			return err
		}
		log.Printf("wrote upper bound (%d points) to %s", prep.Upper.NumPoints(), *upperOut)
	}
	return nil
}
