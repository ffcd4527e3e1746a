package main

import (
	"context"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bpomdp/internal/controller"
	"bpomdp/internal/obs"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/server"
)

// The traced run wraps every layer boundary from outside the program: an
// http.RoundTripper around the client transport, an http.Handler around
// each server, decorators on the NewController and NewBatchDecider
// products, and a decorator on the Checkpointer. Nesting makes the
// decomposition exact: a worker's wall time holds its client calls, a call
// holds its round trips, a round trip holds the server handler, and a
// handler holds the controller and checkpoint calls. Self time at each
// layer is its total minus the layer below, so the six layers sum to the
// workers' wall time by construction.

// sampleEvery is the span sampling period: an episode keeps full spans when
// its key hashes to 0 modulo sampleEvery, so every layer makes the same
// choice from the key alone.
const sampleEvery = 64

// clientNode names the benchmark's own process in span records.
const clientNode = "client"

// tombstoneReplicaPath is where fleet members post replicated tombstones;
// handler time there is background work outside the decomposition.
const tombstoneReplicaPath = "/v1/fleet/tombstones"

func sampled(key string) bool {
	if key == "" {
		return false
	}
	h := uint32(2166136261) // FNV-1a
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h%sampleEvery == 0
}

// layerClock accumulates calls and busy time at one boundary.
type layerClock struct {
	n     atomic.Int64
	nanos atomic.Int64
}

func (c *layerClock) add(d time.Duration) {
	c.n.Add(1)
	c.nanos.Add(int64(d))
}

// meanMicros is the mean call time in microseconds (0 with no calls).
func (c *layerClock) meanMicros() float64 {
	return ratio(float64(c.nanos.Load())/1e3, float64(c.n.Load()))
}

// Histogram geometry: bucket 0 holds durations up to histBase, bucket i
// holds (histBase·histGrowth^(i-1), histBase·histGrowth^i], so a reported
// quantile is within 2% of the true value.
const (
	histBase    = 100 * time.Nanosecond
	histGrowth  = 1.02
	histBuckets = 1200 // up to histBase·1.02^1199 ≈ 2000 s
)

var logHistGrowth = math.Log(histGrowth)

// latencyHist is a lock-free log-bucketed duration histogram, fed from any
// goroutine. Its fixed size keeps the process's memory the same however
// many durations a window observes.
type latencyHist struct {
	buckets [histBuckets]atomic.Int64
}

func (h *latencyHist) observe(d time.Duration) {
	i := 0
	if d > histBase {
		i = int(math.Ceil(math.Log(float64(d)/float64(histBase)) / logHistGrowth))
		if i >= histBuckets {
			i = histBuckets - 1
		}
	}
	h.buckets[i].Add(1)
}

func (h *latencyHist) count() int64 {
	var total int64
	for i := range h.buckets {
		total += h.buckets[i].Load()
	}
	return total
}

// quantileMicros reads the nearest-rank q-quantile in microseconds (0 with
// no observations). Within its bucket the rank is placed linearly between
// the bucket's bounds, so the value moves with the counts rather than in 2%
// steps.
func (h *latencyHist) quantileMicros(q float64) float64 {
	total := h.count()
	if total == 0 {
		return 0
	}
	rank := max(int64(math.Ceil(q*float64(total))), 1)
	var seen int64
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if seen+n >= rank {
			hi := float64(histBase) * math.Pow(histGrowth, float64(i))
			lo := 0.0
			if i > 0 {
				lo = hi / histGrowth
			}
			return (lo + (hi-lo)*float64(rank-seen)/float64(n)) / 1e3
		}
		seen += n
	}
	return float64(histBase) * math.Pow(histGrowth, histBuckets-1) / 1e3
}

// layerCounters is one measured window's worth of traced counters.
type layerCounters struct {
	calls      layerClock // client API calls made by the workers
	roundTrips layerClock // foreground HTTP round trips
	redirects  layerClock // the round trips answered with a 307
	handlers   layerClock // foreground server handler time
	accepts    layerClock // replicated-tombstone accept handlers (background)
	decide     layerClock // controller Decide
	observe    layerClock // controller Observe (the pomdp belief update)
	batch      layerClock // controller DecideBatch
	checkpoint layerClock // foreground Save, SaveTombstone and Delete

	beliefs  atomic.Int64 // beliefs decided by DecideBatch
	dials    atomic.Int64 // new client connections
	rejected atomic.Int64 // foreground responses with status >= 400

	handlerHist, decideHist, checkpointHist latencyHist
}

// tracer collects the traced decomposition of one stack. A nil *tracer is
// an untraced stack: its wrap methods hand their argument back unchanged.
type tracer struct {
	cur atomic.Pointer[layerCounters]

	mu    sync.Mutex
	spans []obs.SpanRecord
}

func newTracer() *tracer {
	t := &tracer{}
	t.reset()
	return t
}

// reset starts a new window: fresh counters, no spans.
func (t *tracer) reset() {
	t.freeze()
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// freeze ends a window: it returns the window's counters, and later calls
// count into fresh ones.
func (t *tracer) freeze() *layerCounters { return t.cur.Swap(new(layerCounters)) }

func (t *tracer) c() *layerCounters { return t.cur.Load() }

func (t *tracer) span(rec obs.SpanRecord) {
	t.mu.Lock()
	t.spans = append(t.spans, rec)
	t.mu.Unlock()
}

// writeSpans writes the kept spans as bpomdp.span/v1 JSONL, readable by
// cmd/tracestats.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sw := obs.NewSpanWriter(f)
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	for i := range spans {
		if err := sw.Write(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// timedCall records one client call made by a worker and, for a sampled
// episode, its client.call span.
func (t *tracer) timedCall(key, op string, t0 time.Time, d time.Duration, force bool) {
	t.c().calls.add(d)
	if force || sampled(key) {
		t.span(obs.SpanRecord{TraceID: key, Node: clientNode, Kind: obs.SpanClientCall, Op: op,
			Start: t0.UnixNano(), Duration: int64(d)})
	}
}

// countDials makes the transport count the connections it opens.
func (t *tracer) countDials(tr *http.Transport) {
	dial := tr.DialContext
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		t.c().dials.Add(1)
		return dial(ctx, network, addr)
	}
}

// tracedTransport times each round trip of one worker's client. inject,
// when set, tags the worker's requests with a trace id: batch requests
// carry no episode key, so sampled batch rounds are traced this way. Only
// the worker goroutine touches inject, and http.Client calls RoundTrip on
// the caller's goroutine.
type tracedTransport struct {
	base   http.RoundTripper
	tr     *tracer
	inject string
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.inject != "" {
		req = req.Clone(req.Context())
		req.Header.Set(server.HeaderTrace, t.inject)
	}
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	d := time.Since(t0)
	c := t.tr.c()
	c.roundTrips.add(d)
	status := 0
	if resp != nil {
		status = resp.StatusCode
	}
	if status == http.StatusTemporaryRedirect {
		c.redirects.add(d)
	}
	if key := req.Header.Get(server.HeaderTrace); key != "" && (t.inject != "" || sampled(key)) {
		rec := obs.SpanRecord{TraceID: key, Node: clientNode, Kind: obs.SpanClientAttempt, Op: callOp(req),
			Start: t0.UnixNano(), Duration: int64(d), Status: status}
		if err != nil {
			rec.Err = err.Error()
		}
		t.tr.span(rec)
	}
	return resp, err
}

// callOp names a request's API operation the way the client's own spans
// do.
func callOp(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/episodes":
		return "start"
	case strings.HasSuffix(p, "/decision"):
		return "decide"
	case strings.HasSuffix(p, "/observations"):
		return "observe"
	case p == "/v1/decide/batch":
		return "batch"
	case p == tombstoneReplicaPath:
		return "accept"
	default:
		return "status"
	}
}

// handlerKinds maps operations to the server span kinds cmd/tracestats
// attributes; batch rounds have no episode kind of their own.
var handlerKinds = map[string]string{
	"start":   obs.SpanServerStart,
	"decide":  obs.SpanServerDecide,
	"observe": obs.SpanServerObserve,
	"status":  obs.SpanServerStatus,
	"accept":  obs.SpanServerAccept,
	"batch":   "server.batch",
}

// statusWriter records the status code a handler writes.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// wrapHandler times every request a member serves.
func (t *tracer) wrapHandler(h http.Handler, node string) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		t0 := time.Now()
		h.ServeHTTP(sw, r)
		d := time.Since(t0)
		c := t.c()
		op := callOp(r)
		if op == "accept" {
			c.accepts.add(d)
		} else {
			c.handlers.add(d)
			c.handlerHist.observe(d)
			if sw.code >= 400 {
				c.rejected.Add(1)
			}
		}
		if key := r.Header.Get(server.HeaderTrace); key != "" && (op == "batch" || sampled(key)) {
			rec := obs.SpanRecord{TraceID: key, Node: node, Kind: handlerKinds[op],
				Start: t0.UnixNano(), Duration: int64(d), Status: sw.code}
			if sw.code == http.StatusTemporaryRedirect {
				rec.Target = sw.Header().Get(server.HeaderOwner)
			}
			t.span(rec)
		}
	})
}

// tracedDecider times a server-side decision engine. It forwards the
// optional interfaces the server and campaign engine look for, so the
// traced run serves through the same paths as the untraced one: without
// TierSource the server would file every FSC decision under tier="tree".
// Controller calls carry no episode identity, so they feed counters only;
// their spans are the enclosing handler spans.
type tracedDecider struct {
	inner decider
	tr    *tracer
}

var (
	_ controller.TierSource       = (*tracedDecider)(nil)
	_ controller.BatchStatsSource = (*tracedDecider)(nil)
)

func (t *tracer) wrapDecider(d decider) decider {
	if t == nil {
		return d
	}
	return &tracedDecider{inner: d, tr: t}
}

func (d *tracedDecider) Reset(initial pomdp.Belief) error { return d.inner.Reset(initial) }
func (d *tracedDecider) Belief() pomdp.Belief             { return d.inner.Belief() }
func (d *tracedDecider) Name() string                     { return d.inner.Name() }

func (d *tracedDecider) Decide() (controller.Decision, error) {
	t0 := time.Now()
	dec, err := d.inner.Decide()
	el := time.Since(t0)
	c := d.tr.c()
	c.decide.add(el)
	c.decideHist.observe(el)
	return dec, err
}

func (d *tracedDecider) Observe(action, obs int) error {
	t0 := time.Now()
	err := d.inner.Observe(action, obs)
	d.tr.c().observe.add(time.Since(t0))
	return err
}

func (d *tracedDecider) DecideBatch(beliefs []pomdp.Belief, out []controller.Decision) error {
	t0 := time.Now()
	err := d.inner.DecideBatch(beliefs, out)
	c := d.tr.c()
	c.batch.add(time.Since(t0))
	c.beliefs.Add(int64(len(beliefs)))
	return err
}

func (d *tracedDecider) LastTier() string {
	if ts, ok := d.inner.(controller.TierSource); ok {
		return ts.LastTier()
	}
	return ""
}

func (d *tracedDecider) StatsEnabled() bool {
	ss, ok := d.inner.(controller.StatsSource)
	return ok && ss.StatsEnabled()
}

func (d *tracedDecider) DecisionStats() controller.DecisionStats {
	if ss, ok := d.inner.(controller.StatsSource); ok {
		return ss.DecisionStats()
	}
	return controller.DecisionStats{}
}

func (d *tracedDecider) BatchDecisionStats() []controller.DecisionStats {
	if bs, ok := d.inner.(controller.BatchStatsSource); ok {
		return bs.BatchDecisionStats()
	}
	return nil
}

// tracedStore times a member's checkpoint writes. A tombstone from another
// member's id range is a replica or an adoption, written outside any
// worker's request, so it counts as background.
type tracedStore struct {
	inner  server.Checkpointer
	tr     *tracer
	node   string
	idBase uint64

	mu   sync.Mutex
	keys map[uint64]string // sampled episode id -> key, for Delete spans
}

func (t *tracer) wrapStore(s server.Checkpointer, node string, idBase uint64) server.Checkpointer {
	if t == nil {
		return s
	}
	return &tracedStore{inner: s, tr: t, node: node, idBase: idBase, keys: make(map[uint64]string)}
}

// ownRange reports whether id is in this member's own episode-id range
// (see server.EpisodeIDBaseFor).
func (s *tracedStore) ownRange(id uint64) bool {
	return id-s.idBase < server.EpisodeIDBaseFor(1)
}

func (s *tracedStore) record(t0 time.Time, key, op string, foreground bool) {
	d := time.Since(t0)
	if foreground {
		c := s.tr.c()
		c.checkpoint.add(d)
		c.checkpointHist.observe(d)
	}
	if sampled(key) {
		s.tr.span(obs.SpanRecord{TraceID: key, Node: s.node, Kind: obs.SpanServerCheckpoint, Op: op,
			Start: t0.UnixNano(), Duration: int64(d)})
	}
}

func (s *tracedStore) Save(st server.EpisodeState) error {
	t0 := time.Now()
	err := s.inner.Save(st)
	if sampled(st.ClientKey) {
		s.mu.Lock()
		s.keys[st.EpisodeID] = st.ClientKey
		s.mu.Unlock()
	}
	s.record(t0, st.ClientKey, obs.SpanOpSave, true)
	return err
}

func (s *tracedStore) Delete(id uint64) error {
	t0 := time.Now()
	err := s.inner.Delete(id)
	s.mu.Lock()
	key := s.keys[id]
	delete(s.keys, id)
	s.mu.Unlock()
	s.record(t0, key, obs.SpanOpDelete, true)
	return err
}

func (s *tracedStore) SaveTombstone(ts server.TombstoneState) error {
	t0 := time.Now()
	err := s.inner.SaveTombstone(ts)
	s.record(t0, ts.ClientKey, obs.SpanOpTombstone, s.ownRange(ts.EpisodeID))
	return err
}

func (s *tracedStore) DeleteTombstone(id uint64) error { return s.inner.DeleteTombstone(id) }

func (s *tracedStore) LoadAll() ([]server.EpisodeState, []server.CorruptCheckpoint, error) {
	return s.inner.LoadAll()
}

func (s *tracedStore) LoadTombstones() ([]server.TombstoneState, []server.CorruptCheckpoint, error) {
	return s.inner.LoadTombstones()
}

// Close forwards io.Closer, which the server checks stores for.
func (s *tracedStore) Close() error {
	if c, ok := s.inner.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
