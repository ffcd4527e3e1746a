package main

import (
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"bpomdp/internal/client"
	"bpomdp/internal/controller"
	"bpomdp/internal/fleet"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
	"bpomdp/internal/sim"
)

// workers is the closed loop's size: one benchmark process, two monitors,
// each waiting for its action before reporting the next observation.
const workers = 2

// batchSize is how many live episodes a batch_tree worker decides per
// POST /v1/decide/batch.
const batchSize = 16

// worker is one monitor of the closed loop. Its samples and call times are
// written only from its own goroutine.
type worker struct {
	s    *stack
	id   int
	seed uint64
	rt   *tracedTransport // nil when untraced

	single *client.Client      // the one server, or n1 in fleet3
	fc     *client.FleetClient // fleet3 only
	batch  *batchDriver        // batch_tree only

	lat      *latencies // the current window's histograms
	epStart  time.Time
	obsStart time.Time
}

// latencies are one window's step and episode wall-time histograms, fed
// by every worker.
type latencies struct {
	steps, episodes latencyHist
}

func newWorker(s *stack, id int, seed uint64) (*worker, error) {
	w := &worker{s: s, id: id, seed: seed}
	var rt http.RoundTripper = s.base
	if s.tr != nil {
		w.rt = &tracedTransport{base: s.base, tr: s.tr}
		rt = w.rt
	}
	hc := &http.Client{Transport: rt}
	var err error
	if w.single, err = client.New(s.members[0].url, hc); err != nil {
		return nil, err
	}
	if s.wl.fleet {
		peers := make([]fleet.Member, 0, len(s.members))
		for _, m := range s.members {
			peers = append(peers, fleet.Member{ID: m.id, Addr: m.url})
		}
		if w.fc, err = client.NewFleetClient(peers, 0, hc); err != nil {
			return nil, err
		}
	}
	if s.wl.batch {
		w.batch = &batchDriver{w: w, inner: w.single.BatchDecider().WithModel(s.pol.prep.Model)}
	}
	return w, nil
}

// remote is what the campaign engine drives and the worker cleans up.
type remote interface {
	controller.Controller
	Abandon() error
}

// start opens episode i of a chunk. In fleet3, even episodes go through the
// FleetClient (owner-routed, with keys from the client library), odd ones
// through a client pinned to n1, so about two thirds of their calls take a
// 307 hop to the owner.
func (w *worker) start(key string, i int) (remote, string, error) {
	if w.fc != nil && i%2 == 0 {
		ep, err := w.fc.StartEpisode()
		if err != nil {
			return nil, "", err
		}
		return ep, ep.Key(), nil
	}
	ep, err := w.single.StartEpisodeKeyed(key)
	if err != nil {
		return nil, "", err
	}
	return ep, key, nil
}

// episodeFactory serves the campaign engine one remote episode per
// injection, timed from the start request to the terminal decision.
func (w *worker) episodeFactory(phase string, chunk int) func(int) (controller.Controller, func(error), error) {
	return func(i int) (controller.Controller, func(error), error) {
		t0 := time.Now()
		w.epStart = t0
		ep, key, err := w.start(fmt.Sprintf("%d-%s%d-%d", w.seed, phase, chunk, i), i)
		if w.s.tr != nil {
			w.s.tr.timedCall(key, "start", t0, time.Since(t0), false)
		}
		if err != nil {
			return nil, nil, err
		}
		cleanup := func(err error) {
			if err != nil {
				_ = ep.Abandon()
			}
		}
		return &episodeDriver{w: w, ep: ep, key: key}, cleanup, nil
	}
}

// episodeDriver is the monitor's view of one remote episode. A step is the
// wait from the start of an observation POST to the end of the decision
// GET that follows it.
type episodeDriver struct {
	w   *worker
	ep  remote
	key string
}

func (d *episodeDriver) Reset(b pomdp.Belief) error { return d.ep.Reset(b) }
func (d *episodeDriver) Belief() pomdp.Belief       { return d.ep.Belief() }
func (d *episodeDriver) Name() string               { return d.ep.Name() }

func (d *episodeDriver) Observe(action, obs int) error {
	t0 := time.Now()
	d.w.obsStart = t0
	err := d.ep.Observe(action, obs)
	if d.w.s.tr != nil {
		d.w.s.tr.timedCall(d.key, "observe", t0, time.Since(t0), false)
	}
	return err
}

func (d *episodeDriver) Decide() (controller.Decision, error) {
	t0 := time.Now()
	dec, err := d.ep.Decide()
	t1 := time.Now()
	if d.w.s.tr != nil {
		d.w.s.tr.timedCall(d.key, "decide", t0, t1.Sub(t0), false)
	}
	if err == nil {
		d.w.lat.steps.observe(t1.Sub(d.w.obsStart))
		if dec.Terminate {
			d.w.lat.episodes.observe(t1.Sub(d.w.epStart))
		}
	}
	return dec, err
}

// batchDriver is a batch_tree worker's decision engine: one
// POST /v1/decide/batch per round, timed as that round's step. It follows
// the campaign engine's live set to time whole episodes: each round
// decides the surviving episodes in order, then the ones started since,
// appended at the end, and an episode leaves with its terminal decision.
type batchDriver struct {
	w      *worker
	inner  *client.BatchDecider
	starts []time.Time // start of each live episode, in live order
	rounds int
	ended  int // episodes seen to terminate
}

func (b *batchDriver) Model() *pomdp.POMDP { return b.inner.Model() }
func (b *batchDriver) Name() string        { return b.inner.Name() }

func (b *batchDriver) DecideBatch(beliefs []pomdp.Belief, out []controller.Decision) error {
	tr := b.w.s.tr
	var trace string
	if tr != nil && b.rounds%sampleEvery == 0 {
		trace = fmt.Sprintf("%d-batch-w%d-r%d", b.w.seed, b.w.id, b.rounds)
		b.w.rt.inject = trace
	}
	b.rounds++
	t0 := time.Now()
	err := b.inner.DecideBatch(beliefs, out)
	t1 := time.Now()
	if tr != nil {
		b.w.rt.inject = ""
		tr.timedCall(trace, "batch", t0, t1.Sub(t0), trace != "")
	}
	if err != nil {
		return err
	}
	b.w.lat.steps.observe(t1.Sub(t0))
	for len(b.starts) < len(beliefs) {
		b.starts = append(b.starts, t0)
	}
	kept := b.starts[:0]
	for k, st := range b.starts {
		if out[k].Terminate {
			b.w.lat.episodes.observe(t1.Sub(st))
			b.ended++
			continue
		}
		kept = append(kept, st)
	}
	b.starts = kept
	return nil
}

// runChunk runs one campaign of n episodes on chunk k's stream.
func (w *worker) runChunk(phase string, stream *rng.Stream, k, n int) (sim.CampaignResult, error) {
	pol := w.s.pol
	opts := sim.CampaignOptions{Workers: 1, ContinueOnError: true}
	if w.batch != nil {
		opts.BatchSize, opts.BatchDecider = batchSize, w.batch
	} else {
		opts.EpisodeFactory = w.episodeFactory(phase, k)
	}
	return pol.runner.RunCampaignOpts(nil, pol.initial, pol.faults(), n, stream.SplitN("chunk", k), opts)
}

// budget bounds a window: exactly chunks chunks when chunks > 0, otherwise
// every chunk started before the deadline.
type budget struct {
	chunks   int
	deadline time.Time
}

// windowResult is what one window of chunks measured. Latency percentiles
// are read from every sample of the window, pooled over workers and chunks.
// On the reference host a batch_tree round trip takes either about 480 µs
// or 800 to 950 µs, and the share of slow ones shifts within a run. A
// percentile taken per chunk lands in one mode or the other, so a median
// over chunks jumps with that share; the pooled percentile moves smoothly.
type windowResult struct {
	episodes, abandoned int
	lat                 latencies
	costSum             float64       // Σ per-chunk mean cost × episodes
	rate                float64       // Σ over workers of episodes / worker wall time
	wallSum             time.Duration // Σ over workers of their wall time
	chunk0              *sim.CampaignResult
	batchEnded          int
	errs                []error

	cpu                      time.Duration
	mallocs, allocBytes, gcs uint64
	gcPause                  time.Duration
}

// runWindow drives the stack from every worker until the budget is spent.
// Chunks are handed out in index order, so chunk 0 always runs and its
// result depends only on the seed.
func (s *stack) runWindow(ws []*worker, phase string, stream *rng.Stream, chunkSize int, b budget) *windowResult {
	res := &windowResult{}
	for _, w := range ws {
		w.lat = &res.lat
		if w.batch != nil {
			w.batch.ended = 0
		}
	}
	before := readRuntime()
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	walls := make([]time.Duration, len(ws))
	counts := make([]int, len(ws))
	start := time.Now()
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if (b.chunks > 0 && k >= b.chunks) || (b.chunks == 0 && k > 0 && !time.Now().Before(b.deadline)) {
					break
				}
				cr, err := w.runChunk(phase, stream, k, chunkSize)
				walls[i] = time.Since(start)
				counts[i] += cr.Episodes
				mu.Lock()
				res.episodes += cr.Episodes
				res.abandoned += cr.Abandoned
				res.costSum += cr.Cost.Mean() * float64(cr.Episodes)
				if k == 0 {
					res.chunk0 = &cr
				}
				if err != nil {
					res.errs = append(res.errs, fmt.Errorf("chunk %d: %w", k, err))
				}
				mu.Unlock()
			}
		}(i, w)
	}
	wg.Wait()
	after := readRuntime()
	for i, w := range ws {
		res.wallSum += walls[i]
		res.rate += ratio(float64(counts[i]), walls[i].Seconds())
		if w.batch != nil {
			res.batchEnded += w.batch.ended
		}
	}
	res.cpu = after.cpu - before.cpu
	res.mallocs = after.mallocs - before.mallocs
	res.allocBytes = after.allocBytes - before.allocBytes
	res.gcs = uint64(after.gcs - before.gcs)
	res.gcPause = after.gcPause - before.gcPause
	return res
}

// stepMicros is the q-quantile of the window's steps, in microseconds.
func (r *windowResult) stepMicros(q float64) measure {
	return measure{value: r.lat.steps.quantileMicros(q), n: int(r.lat.steps.count())}
}

// episodeMillis is the q-quantile of the window's episode wall times, in
// milliseconds.
func (r *windowResult) episodeMillis(q float64) measure {
	return measure{value: r.lat.episodes.quantileMicros(q) / 1e3, n: int(r.lat.episodes.count())}
}

// checkReplay compares a window's chunk 0 with the same campaign decided
// in-process by a local decider, which must agree bit for bit.
func (r *windowResult) checkReplay(local sim.CampaignResult) error {
	got := r.chunk0
	if got == nil {
		return errors.New("chunk 0 did not run")
	}
	if got.Episodes != local.Episodes || got.Recovered != local.Recovered || got.Cost != local.Cost ||
		got.Actions != local.Actions || got.MonitorCalls != local.MonitorCalls {
		return fmt.Errorf("served chunk 0 (%d episodes, %d recovered, mean cost %v) differs from the local replay (%d, %d, %v)",
			got.Episodes, got.Recovered, got.Cost.Mean(), local.Episodes, local.Recovered, local.Cost.Mean())
	}
	return nil
}

// replayChunk0 runs chunk 0 of the timed stream in-process with the same
// campaign call and a local decider.
func (p *policy) replayChunk0(stream *rng.Stream, n int, batch bool) (sim.CampaignResult, error) {
	d, err := p.newDecider()
	if err != nil {
		return sim.CampaignResult{}, err
	}
	opts := sim.CampaignOptions{Workers: 1}
	if batch {
		opts.BatchSize, opts.BatchDecider = batchSize, d
	}
	return p.runner.RunCampaignOpts(d, p.initial, p.faults(), n, stream.SplitN("chunk", 0), opts)
}

// runtimeSample is the process-wide resource use at one instant.
type runtimeSample struct {
	cpu                 time.Duration
	mallocs, allocBytes uint64
	gcs                 uint32
	gcPause             time.Duration
	maxRSSKiB           int64
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return runtimeSample{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcs:        ms.NumGC,
		gcPause:    time.Duration(ms.PauseTotalNs),
		maxRSSKiB:  ru.Maxrss,
	}
}
