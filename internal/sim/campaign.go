package sim

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"bpomdp/internal/controller"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
	"bpomdp/internal/stats"
)

// CampaignResult aggregates the per-fault averages of a fault-injection
// campaign — one Table 1 row.
type CampaignResult struct {
	// Name labels the controller.
	Name string
	// Episodes and Recovered count injections and successful recoveries.
	Episodes, Recovered int
	// Abandoned counts episodes that failed with an error instead of
	// terminating (only non-zero with CampaignOptions.ContinueOnError).
	Abandoned int
	// Per-fault metric accumulators.
	Cost, RecoveryTime, ResidualTime, AlgoTimeMs, Actions, MonitorCalls stats.Accumulator

	// Decision-stat aggregates, non-zero only when the campaign's
	// controllers collect per-decision stats: total decisions covered, the
	// Max-Avg expansion work they performed, and per-episode means of the
	// bound gap (Property 1(b) slack) and decision-time belief entropy.
	// TreeNodes and LeafEvals count the logical tree, so batched and
	// sequential stepping report the same totals although a batched
	// expansion evaluates each distinct belief only once.
	Decisions                        int
	TreeNodes, LeafEvals, SlabPasses uint64
	BoundGap, BeliefEntropy          stats.Accumulator
	// FSCDecisions and TreeDecisions split Decisions by serving tier: table
	// hits of a compiled FSC vs Max-Avg tree expansions (including FSC
	// fallbacks). Zero unless the controllers collect stats.
	FSCDecisions, TreeDecisions int
}

// add folds one successful episode into the aggregate.
func (c *CampaignResult) add(res EpisodeResult) {
	c.Episodes++
	if res.Recovered {
		c.Recovered++
	}
	c.Cost.Add(res.Cost)
	c.RecoveryTime.Add(res.RecoveryTime)
	c.ResidualTime.Add(res.ResidualTime)
	c.AlgoTimeMs.Add(float64(res.AlgoTime) / float64(time.Millisecond))
	c.Actions.Add(float64(res.Actions))
	c.MonitorCalls.Add(float64(res.MonitorCalls))
	if res.Decisions > 0 {
		c.Decisions += res.Decisions
		c.TreeNodes += res.TreeNodes
		c.LeafEvals += res.LeafEvals
		c.SlabPasses += res.SlabPasses
		c.BoundGap.Add(res.BoundGapSum / float64(res.Decisions))
		c.BeliefEntropy.Add(res.EntropySum / float64(res.Decisions))
		c.FSCDecisions += res.FSCDecisions
		c.TreeDecisions += res.TreeDecisions
	}
}

// merge folds another worker's aggregate into c (exact parallel-variance
// combination via stats.Accumulator.Merge).
func (c *CampaignResult) merge(o *CampaignResult) {
	if c.Name == "" {
		c.Name = o.Name
	}
	c.Episodes += o.Episodes
	c.Recovered += o.Recovered
	c.Abandoned += o.Abandoned
	c.Cost.Merge(&o.Cost)
	c.RecoveryTime.Merge(&o.RecoveryTime)
	c.ResidualTime.Merge(&o.ResidualTime)
	c.AlgoTimeMs.Merge(&o.AlgoTimeMs)
	c.Actions.Merge(&o.Actions)
	c.MonitorCalls.Merge(&o.MonitorCalls)
	c.Decisions += o.Decisions
	c.TreeNodes += o.TreeNodes
	c.LeafEvals += o.LeafEvals
	c.SlabPasses += o.SlabPasses
	c.BoundGap.Merge(&o.BoundGap)
	c.BeliefEntropy.Merge(&o.BeliefEntropy)
	c.FSCDecisions += o.FSCDecisions
	c.TreeDecisions += o.TreeDecisions
}

// ControllerFactory builds an independent controller (and its initial
// belief) for one worker. Controllers are stateful and not safe for
// concurrent use, so the parallel campaign gives each worker its own.
type ControllerFactory func() (controller.Controller, pomdp.Belief, error)

// CampaignOptions tunes RunCampaignOpts. The zero value runs the campaign
// sequentially with a shared controller — the classic Table 1 loop.
type CampaignOptions struct {
	// ContinueOnError records a failed episode as Abandoned and moves on to
	// the next injection instead of aborting the campaign — the right mode
	// when the controller sits behind an unreliable transport and an
	// episode-level failure is itself a measurement.
	ContinueOnError bool
	// EpisodeFactory, when set, supplies a fresh controller per episode
	// (e.g. a new remote episode from a client); ctrl passed to the
	// campaign is ignored. The second return value, when non-nil, is called
	// after the episode with its error (nil on success) — a cleanup hook
	// for abandoning remote episodes. With Workers > 1 the factory is called
	// concurrently from worker goroutines and must be safe for that.
	EpisodeFactory func(episode int) (controller.Controller, func(error), error)
	// Workers is the number of campaign goroutines; 0 or 1 runs the
	// campaign sequentially on the calling goroutine, so an EpisodeFactory
	// need be concurrency-safe only when the caller asks for Workers > 1.
	// Episode i is assigned to worker i mod Workers and uses the same
	// derived RNG stream at any worker count, so for a fixed Workers value
	// the campaign is exactly reproducible on any GOMAXPROCS; the merged
	// statistics with Workers == 1 are bit-for-bit the sequential result.
	Workers int
	// WorkerFactory supplies each worker's private controller and initial
	// belief. Required when Workers > 1 and no EpisodeFactory is set: a
	// shared ctrl is stateful and cannot be driven from several goroutines.
	WorkerFactory ControllerFactory
	// BatchSize > 0 enables batched stepping: each worker keeps up to
	// BatchSize episodes live at once and advances them together through
	// one BatchDecider call per round, amortizing tree expansion and
	// leaf-bound evaluation across the batch. Per-episode RNG streams,
	// trajectories, and metrics are bit-identical to sequential stepping
	// (each worker folds its completed episodes in episode-index order),
	// so BatchSize is purely a throughput knob. Batched stepping tracks
	// each episode's belief with a pooled controller.BeliefFilter instead
	// of an episode controller, so it is incompatible with EpisodeFactory
	// and does not feed StateAware controllers.
	BatchSize int
	// BatchDecider supplies the decision engine for batched stepping. When
	// nil, the worker's controller (shared ctrl or WorkerFactory product)
	// must implement controller.BatchDecider. A BatchDecider is stateful
	// scratch-wise and must not be shared between workers; setting it with
	// Workers > 1 is rejected — use a WorkerFactory whose controllers
	// implement controller.BatchDecider instead.
	BatchDecider controller.BatchDecider
}

// RunCampaign injects episodes faults (uniformly over faultStates) and
// aggregates per-fault metrics. Episode RNG streams are derived from the
// given stream per episode index, so campaigns are reproducible and
// insensitive to controller internals.
func (r *Runner) RunCampaign(ctrl controller.Controller, initial pomdp.Belief, faultStates []int, episodes int, stream *rng.Stream) (CampaignResult, error) {
	return r.RunCampaignOpts(ctrl, initial, faultStates, episodes, stream, CampaignOptions{})
}

// RunCampaignOpts is the campaign engine: RunCampaign plus per-episode
// controller factories, error tolerance, and multi-worker execution (see
// CampaignOptions). The sequential path is simply Workers == 1.
//
// Error handling is uniform across worker counts: without ContinueOnError a
// failing episode stops the campaign, but the CampaignResult still carries
// every episode completed before the failure (partial results are never
// discarded), and the returned error joins every worker's failure via
// errors.Join rather than surfacing an arbitrary first one.
func (r *Runner) RunCampaignOpts(ctrl controller.Controller, initial pomdp.Belief, faultStates []int, episodes int, stream *rng.Stream, opts CampaignOptions) (CampaignResult, error) {
	var out CampaignResult
	if ctrl != nil {
		out.Name = ctrl.Name()
	}
	if len(faultStates) == 0 {
		return out, fmt.Errorf("sim: no fault states to inject")
	}
	if episodes < 1 {
		return out, fmt.Errorf("sim: non-positive episode count %d", episodes)
	}
	if ctrl == nil && opts.EpisodeFactory == nil && opts.WorkerFactory == nil && opts.BatchDecider == nil {
		return out, fmt.Errorf("sim: nil controller and no episode or worker factory")
	}
	if opts.BatchSize < 0 {
		return out, fmt.Errorf("sim: negative batch size %d", opts.BatchSize)
	}
	if opts.BatchSize > 0 && opts.EpisodeFactory != nil {
		return out, fmt.Errorf("sim: batched stepping is incompatible with EpisodeFactory")
	}
	if opts.BatchDecider != nil && opts.BatchSize == 0 {
		return out, fmt.Errorf("sim: BatchDecider set without a positive BatchSize")
	}
	workers := max(1, min(opts.Workers, episodes))
	if workers > 1 && opts.BatchDecider != nil {
		return out, fmt.Errorf("sim: shared batch decider cannot run %d workers; use a WorkerFactory of batch-capable controllers", workers)
	}

	if workers == 1 {
		if opts.WorkerFactory != nil && opts.EpisodeFactory == nil {
			c, ini, err := opts.WorkerFactory()
			if err != nil {
				return out, fmt.Errorf("sim: worker 0 factory: %w", err)
			}
			ctrl, initial = c, ini
			out.Name = ctrl.Name()
		}
		res, err := r.runWorker(0, 1, ctrl, initial, faultStates, episodes, stream, opts)
		res.Name = firstNonEmpty(res.Name, out.Name)
		return res, err
	}

	if opts.EpisodeFactory == nil && opts.WorkerFactory == nil {
		return out, fmt.Errorf("sim: shared controller cannot run %d workers; set WorkerFactory or EpisodeFactory", workers)
	}

	results := make([]CampaignResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wCtrl, wInitial := ctrl, initial
			if opts.WorkerFactory != nil && opts.EpisodeFactory == nil {
				c, ini, err := opts.WorkerFactory()
				if err != nil {
					errs[w] = fmt.Errorf("sim: worker %d factory: %w", w, err)
					return
				}
				wCtrl, wInitial = c, ini
			}
			results[w], errs[w] = r.runWorker(w, workers, wCtrl, wInitial, faultStates, episodes, stream, opts)
		}(w)
	}
	wg.Wait()

	for w := range results {
		out.merge(&results[w])
	}
	return out, errors.Join(errs...)
}

// firstNonEmpty returns a if non-empty, else b.
func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}

// doneEpisode is a finished episode's outcome, held by value until every
// earlier episode of the stripe has finished, so the episode object can be
// recycled the moment the episode ends. ok is false for a failed episode.
type doneEpisode struct {
	index int
	ok    bool
	res   EpisodeResult
}

// runWorker runs worker w's stripe of the campaign — episodes w, w+workers,
// w+2·workers, … — on the calling goroutine. It is the single episode loop
// behind every campaign mode: the sequential engine is exactly
// runWorker(0, 1, …).
//
// The worker keeps up to BatchSize episodes of its stripe live (one when
// BatchSize is 0) and advances them in rounds: refill the live set, enforce
// the step budget, decide, then terminate, fail or step each episode. Only
// the decision round depends on the mode. Under batched stepping one
// BatchDecider call decides for every live episode, whose beliefs pooled
// filters track; otherwise the live episode's own controller (the shared
// one, a WorkerFactory product, or an EpisodeFactory product) decides.
// Per-episode RNG streams are derived from the episode index, the filters
// perform the controllers' Bayes updates, and DecideBatch is bit-identical
// to Decide, so trajectories do not depend on the mode or the batch size;
// finished episodes are folded into the aggregate in episode-index order —
// the accumulator is floating-point-order sensitive — so the resulting
// CampaignResult (wall-clock AlgoTime aside) does not either.
//
// With ContinueOnError every failing episode is counted Abandoned;
// otherwise the failure with the smallest episode index becomes the
// worker's error (the one a one-at-a-time loop would hit first): the
// worker starts no further episodes, episodes before it drain to
// completion and are folded, and episodes after it are discarded as
// never-run. The one necessarily coarser case is a DecideBatch error,
// which cannot be attributed to a single episode and fails every episode
// live at that moment. Other workers finish their stripes, so the merged
// partial result of a failing campaign is itself deterministic for a fixed
// worker count.
func (r *Runner) runWorker(w, workers int, ctrl controller.Controller, initial pomdp.Belief, faultStates []int, episodes int, stream *rng.Stream, opts CampaignOptions) (CampaignResult, error) {
	var out CampaignResult
	if ctrl != nil {
		out.Name = ctrl.Name()
	}
	p := r.rm.POMDP
	batch := opts.BatchSize
	var (
		bd            controller.BatchDecider
		bss           controller.BatchStatsSource
		fp            *pomdp.POMDP
		filterScratch *pomdp.Scratch
		label         string
	)
	if batch > 0 {
		if bd = opts.BatchDecider; bd == nil {
			bd, _ = ctrl.(controller.BatchDecider)
		}
		if bd == nil {
			return out, fmt.Errorf("sim: batched stepping needs a controller.BatchDecider (set CampaignOptions.BatchDecider or use a batch-capable controller)")
		}
		// The belief filters must track the decider's state space, not the
		// simulated base model: the Section 3.1 transforms append
		// termination states, so the decider's model is usually wider. Base
		// action and observation indices coincide (the transforms guarantee
		// it), which is what lets the base-model simulator feed a
		// transformed-model filter.
		fp = p
		if m, ok := bd.(interface{ Model() *pomdp.POMDP }); ok && m.Model() != nil {
			fp = m.Model()
		}
		if len(initial) != fp.NumStates() {
			return out, fmt.Errorf("sim: initial belief length %d does not match the batch decider's %d-state model", len(initial), fp.NumStates())
		}
		label = "batched"
		if n, ok := bd.(interface{ Name() string }); ok {
			label = n.Name()
		} else if ctrl != nil {
			label = ctrl.Name()
		}
		out.Name = label
		if s, ok := bd.(controller.BatchStatsSource); ok && s.StatsEnabled() {
			bss = s
		}
		// One update scratch shared by every filter of the stripe: the
		// filters advance strictly one at a time.
		filterScratch = pomdp.NewScratch(fp)
	} else {
		batch = 1
	}

	live := make([]*episode, 0, batch)
	free := make([]*episode, 0, batch)
	beliefs := make([]pomdp.Belief, 0, batch)
	decisions := make([]controller.Decision, batch)
	var finished []doneEpisode
	next := w     // next episode index of the stripe to start
	nextFold := w // next episode index of the stripe to fold
	fatalIdx, fatalErr := -1, error(nil)

	// settle records a finished episode and folds every finished episode
	// whose stripe predecessors have all finished, in index order, stopping
	// at a fatal failure.
	settle := func(d doneEpisode) {
		finished = append(finished, d)
		for fatalIdx < 0 || nextFold < fatalIdx {
			k := -1
			for i := range finished {
				if finished[i].index == nextFold {
					k = i
					break
				}
			}
			if k < 0 {
				return
			}
			if finished[k].ok {
				out.add(finished[k].res)
			}
			last := len(finished) - 1
			finished[k] = finished[last]
			finished = finished[:last]
			nextFold += workers
		}
	}
	// release returns an episode object to the arena for the next start.
	release := func(e *episode) {
		e.ctrl, e.stats, e.done = nil, nil, nil
		free = append(free, e)
	}
	// lose records the failure of episode i: Abandoned under
	// ContinueOnError, else the smallest-index failure becomes the error.
	lose := func(i int, err error) {
		if opts.ContinueOnError {
			out.Abandoned++
		} else if fatalIdx < 0 || i < fatalIdx {
			fatalIdx, fatalErr = i, err
		}
		settle(doneEpisode{index: i})
	}
	fail := func(e *episode, err error) {
		if e.done != nil {
			e.done(err)
		}
		lose(e.index, fmt.Errorf("sim: episode %d (fault %s): %w", e.index, p.M.StateName(e.fault), err))
		release(e)
	}
	finish := func(e *episode) {
		if e.done != nil {
			e.done(nil)
		}
		settle(doneEpisode{index: e.index, ok: true, res: e.res})
		release(e)
	}

	for {
		// Refill the live set from the stripe. Recycled episode objects
		// reseed their stream in place.
		for len(live) < batch && next < episodes && fatalIdx < 0 {
			i := next
			next += workers
			var e *episode
			if len(free) > 0 {
				e = free[len(free)-1]
				free = free[:len(free)-1]
			} else {
				e = &episode{label: label}
				if bd != nil {
					e.flt = controller.NewBeliefFilter(fp, filterScratch)
				}
			}
			e.stream = stream.SplitNInto(e.stream, "episode", i)
			e.index, e.fault = i, faultStates[e.stream.IntN(len(faultStates))]
			if bd == nil {
				e.ctrl = ctrl
				if opts.EpisodeFactory != nil {
					c, cleanup, err := opts.EpisodeFactory(i)
					if err != nil {
						lose(i, fmt.Errorf("sim: episode %d factory: %w", i, err))
						release(e)
						continue
					}
					e.ctrl, e.done = c, cleanup
					if out.Name == "" {
						out.Name = c.Name()
					}
				}
			}
			if err := r.start(e, initial); err != nil {
				fail(e, err)
				continue
			}
			live = append(live, e)
		}
		if len(live) == 0 {
			break
		}
		// Enforce the step budget, and discard episodes a recorded fatal
		// failure proves a one-at-a-time loop would never have started.
		kept := live[:0]
		for _, e := range live {
			if fatalIdx >= 0 && e.index > fatalIdx {
				release(e)
				continue
			}
			if err := r.checkBudget(e); err != nil {
				fail(e, err)
				continue
			}
			kept = append(kept, e)
		}
		live = kept
		if len(live) == 0 {
			continue
		}

		// The decision round.
		if bd != nil {
			beliefs = beliefs[:0]
			for _, e := range live {
				beliefs = append(beliefs, e.flt.Current())
			}
			t0 := time.Now()
			err := bd.DecideBatch(beliefs, decisions[:len(live)])
			share := time.Since(t0) / time.Duration(len(live))
			for _, e := range live {
				e.res.AlgoTime += share
			}
			if err != nil {
				derr := fmt.Errorf("sim: %s decide: %w", label, err)
				for _, e := range live {
					fail(e, derr)
				}
				live = live[:0]
				continue
			}
			if bss != nil {
				for k, st := range bss.BatchDecisionStats()[:len(live)] {
					live[k].res.addStats(st)
				}
			}
		} else {
			kept = live[:0]
			for _, e := range live {
				d, err := e.decide()
				if err != nil {
					fail(e, err)
					continue
				}
				decisions[len(kept)] = d
				kept = append(kept, e)
			}
			live = kept
		}

		kept = live[:0]
		for k, e := range live {
			ended, err := r.apply(e, decisions[k])
			switch {
			case err != nil:
				fail(e, err)
			case ended:
				finish(e)
			default:
				kept = append(kept, e)
			}
		}
		live = kept
	}
	return out, fatalErr
}

// Row renders the campaign as a Table 1 row: cost, recovery time, residual
// time, algorithm time, actions, monitor calls (per-fault averages).
func (c *CampaignResult) Row() []string {
	return []string{
		c.Name,
		fmt.Sprintf("%.2f", c.Cost.Mean()),
		fmt.Sprintf("%.2f", c.RecoveryTime.Mean()),
		fmt.Sprintf("%.2f", c.ResidualTime.Mean()),
		fmt.Sprintf("%.3f", c.AlgoTimeMs.Mean()),
		fmt.Sprintf("%.3f", c.Actions.Mean()),
		fmt.Sprintf("%.2f", c.MonitorCalls.Mean()),
		fmt.Sprintf("%d/%d", c.Recovered, c.Episodes),
	}
}

// TableHeaders are the column headers matching Row.
func TableHeaders() []string {
	return []string{"Algorithm", "Cost", "RecoveryTime(s)", "ResidualTime(s)", "AlgoTime(ms)", "Actions", "MonitorCalls", "Recovered"}
}
