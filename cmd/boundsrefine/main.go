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

	"bpomdp/internal/core"
	"bpomdp/internal/modelload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "boundsrefine:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("boundsrefine", flag.ContinueOnError)
	var offline modelload.Flags
	offline.Register(fs)
	var (
		gap      = fs.Float64("gap", 1e-6, "target root bound gap refinement converges to")
		trials   = fs.Int("trials", 0, "cap on exploration trials (0 = default)")
		depth    = fs.Int("depth", 0, "cap on per-trial exploration depth (0 = default)")
		out      = fs.String("out", "bounds.json", "write the refined lower-bound set here")
		upperOut = fs.String("upper-out", "", "also write the refined sawtooth upper bound here (optional)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	prep, err := offline.Prepare()
	if err != nil {
		return err
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
