package tracestats

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bpomdp/internal/obs"
)

const msN = int64(time.Millisecond)

// span builds a test record; start/dur in milliseconds for readability.
func span(trace, node, kind string, startMs, durMs int64) obs.SpanRecord {
	return obs.SpanRecord{
		Schema: obs.SpanSchema, TraceID: trace, Node: node, Kind: kind,
		Start: startMs * msN, Duration: durMs * msN,
	}
}

// TestStitchSingleNodeAttribution checks the residual identity on a simple
// one-node story: one call, one attempt, a decide handler containing a
// checkpoint span.
func TestStitchSingleNodeAttribution(t *testing.T) {
	call := span("ck", "client", obs.SpanClientCall, 0, 100)
	attempt := span("ck", "client", obs.SpanClientAttempt, 5, 90)
	decide := span("ck", "n1", obs.SpanServerDecide, 10, 60)
	decide.Status = 200
	decide.Tier = "fsc"
	decide.Episode = 7
	checkpoint := span("ck", "n1", obs.SpanServerCheckpoint, 20, 30)
	checkpoint.Op = obs.SpanOpSave

	tls := Stitch([]obs.SpanRecord{checkpoint, call, decide, attempt})
	if len(tls) != 1 {
		t.Fatalf("%d timelines, want 1", len(tls))
	}
	tl := tls[0]
	if tl.Episode != 7 {
		t.Errorf("episode %d, want 7", tl.Episode)
	}
	if tl.WallNanos != 100*msN {
		t.Errorf("wall %d, want %d", tl.WallNanos, 100*msN)
	}
	b := tl.Buckets
	if b.DecideNanos != 30*msN { // 60 handler - 30 checkpoint
		t.Errorf("decide %d, want %d", b.DecideNanos, 30*msN)
	}
	if b.CheckpointNanos != 30*msN {
		t.Errorf("checkpoint %d, want %d", b.CheckpointNanos, 30*msN)
	}
	if b.NetworkNanos != 30*msN { // 90 attempt - 60 handler
		t.Errorf("network %d, want %d", b.NetworkNanos, 30*msN)
	}
	if b.ClientNanos != 10*msN { // 100 call - 90 attempt
		t.Errorf("client %d, want %d", b.ClientNanos, 10*msN)
	}
	if got := b.AccountedNanos(); got != tl.WallNanos {
		t.Errorf("accounted %d != wall %d", got, tl.WallNanos)
	}
	if len(tl.Orphans) != 0 {
		t.Errorf("orphans: %v", tl.Orphans)
	}
	if len(tl.Nodes) != 1 || tl.Nodes[0] != "n1" || tl.Hops != 0 {
		t.Errorf("nodes %v hops %d", tl.Nodes, tl.Hops)
	}
}

// TestStitchRedirectAndRetry covers a cross-node episode: a 307 hop inside
// the first attempt, a backoff, then the real owner serving the request —
// plus nested adopt>checkpoint subtraction.
func TestStitchRedirectAndRetry(t *testing.T) {
	call := span("ck", "client", obs.SpanClientCall, 0, 200)
	a0 := span("ck", "client", obs.SpanClientAttempt, 0, 60)
	a0.Attempt = 0
	redirect := span("ck", "n1", obs.SpanServerStart, 10, 20)
	redirect.Status = 307
	redirect.Target = "n2"
	serve := span("ck", "n2", obs.SpanServerStart, 35, 20)
	serve.Status = 200
	backoff := span("ck", "client", obs.SpanClientBackoff, 60, 40)
	backoff.Attempt = 1
	a1 := span("ck", "client", obs.SpanClientAttempt, 100, 100)
	a1.Attempt = 1
	decide := span("ck", "n2", obs.SpanServerDecide, 110, 80)
	decide.Status = 200
	adopt := span("ck", "n2", obs.SpanServerAdopt, 120, 40)
	adopt.Op = obs.SpanOpEpisode
	adopt.Source = "n1"
	ckpt := span("ck", "n2", obs.SpanServerCheckpoint, 130, 10)
	ckpt.Op = obs.SpanOpSave

	tls := Stitch([]obs.SpanRecord{call, a0, redirect, serve, backoff, a1, decide, adopt, ckpt})
	tl := tls[0]
	if tl.Redirects != 1 {
		t.Errorf("redirects %d, want 1", tl.Redirects)
	}
	if len(tl.Nodes) != 2 || tl.Hops == 0 {
		t.Errorf("nodes %v hops %d", tl.Nodes, tl.Hops)
	}
	b := tl.Buckets
	if b.RedirectNanos != 20*msN {
		t.Errorf("redirect %d, want %d", b.RedirectNanos, 20*msN)
	}
	if b.RetryBackoffNanos != 40*msN {
		t.Errorf("backoff %d, want %d", b.RetryBackoffNanos, 40*msN)
	}
	if b.AdoptNanos != 30*msN { // 40 adopt - 10 nested checkpoint
		t.Errorf("adopt %d, want %d", b.AdoptNanos, 30*msN)
	}
	if b.CheckpointNanos != 10*msN {
		t.Errorf("checkpoint %d, want %d", b.CheckpointNanos, 10*msN)
	}
	if b.DecideNanos != 40*msN { // 80 - 40 adopt subtree
		t.Errorf("decide %d, want %d", b.DecideNanos, 40*msN)
	}
	// network: attempts 160 - handlers (20 redirect + 20 serve + 80 decide)
	if b.NetworkNanos != 40*msN {
		t.Errorf("network %d, want %d", b.NetworkNanos, 40*msN)
	}
	if got := b.AccountedNanos(); got != tl.WallNanos {
		t.Errorf("accounted %d != wall %d", got, tl.WallNanos)
	}
	if len(tl.Orphans) != 0 {
		t.Errorf("orphans: %v", tl.Orphans)
	}
}

// TestStitchOrphanDetection: a redirect into the void, an adoption from a
// node that never spoke, and a successful replication without an accept all
// must surface as orphans.
func TestStitchOrphanDetection(t *testing.T) {
	redirect := span("ck", "n1", obs.SpanServerStart, 0, 10)
	redirect.Status = 307
	redirect.Target = "n9"
	adopt := span("ck", "n2", obs.SpanServerAdopt, 20, 10)
	adopt.Source = "n8"
	rep := span("ck", "n2", obs.SpanServerReplicate, 40, 10)
	rep.Target = "n7"

	tl := Stitch([]obs.SpanRecord{redirect, adopt, rep})[0]
	if len(tl.Orphans) != 3 {
		t.Fatalf("orphans %v, want 3", tl.Orphans)
	}
	// A failed replication is not an orphan edge — nothing should have
	// landed.
	repFail := rep
	repFail.Err = "aborted by shutdown"
	tl = Stitch([]obs.SpanRecord{span("ck", "n8", obs.SpanServerStart, 0, 5), adopt, repFail})[0]
	if len(tl.Orphans) != 0 {
		t.Errorf("orphans %v, want none", tl.Orphans)
	}
}

// TestStitchServerOnlyFallback: with no client spans the wall falls back to
// the stitched extent and every handler counts.
func TestStitchServerOnlyFallback(t *testing.T) {
	d1 := span("ck", "n1", obs.SpanServerDecide, 0, 10)
	d2 := span("ck", "n1", obs.SpanServerObserve, 30, 20)
	tl := Stitch([]obs.SpanRecord{d1, d2})[0]
	if tl.WallNanos != 50*msN {
		t.Errorf("wall %d, want extent %d", tl.WallNanos, 50*msN)
	}
	if tl.Buckets.DecideNanos != 10*msN || tl.Buckets.ObserveNanos != 20*msN {
		t.Errorf("buckets %+v", tl.Buckets)
	}
}

// TestStitchSeveredHandlerIsBackground: a handler span not contained in any
// client attempt (the client gave up before the server finished) must land
// in Background, keeping the identity intact.
func TestStitchSeveredHandlerIsBackground(t *testing.T) {
	call := span("ck", "client", obs.SpanClientCall, 0, 50)
	attempt := span("ck", "client", obs.SpanClientAttempt, 0, 50)
	severed := span("ck", "n1", obs.SpanServerDecide, 40, 100) // outlives the attempt
	tl := Stitch([]obs.SpanRecord{call, attempt, severed})[0]
	if tl.Buckets.BackgroundNanos != 100*msN {
		t.Errorf("background %d, want %d", tl.Buckets.BackgroundNanos, 100*msN)
	}
	if tl.Buckets.DecideNanos != 0 {
		t.Errorf("decide %d, want 0", tl.Buckets.DecideNanos)
	}
	if got := tl.Buckets.AccountedNanos(); got != tl.WallNanos {
		t.Errorf("accounted %d != wall %d", got, tl.WallNanos)
	}
}

// TestLoadAndSummarize round-trips span files through Load and checks the
// aggregate view.
func TestLoadAndSummarize(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, recs ...obs.SpanRecord) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		w := obs.NewSpanWriter(f)
		for i := range recs {
			if err := w.Write(&recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		f.Close()
		return path
	}
	p1 := write("n1.spans",
		span("a", "client", obs.SpanClientCall, 0, 100),
		span("a", "client", obs.SpanClientAttempt, 0, 100),
		span("a", "n1", obs.SpanServerDecide, 10, 50))
	p2 := write("n2.spans",
		span("b", "client", obs.SpanClientCall, 0, 300),
		span("b", "client", obs.SpanClientAttempt, 0, 300),
		span("b", "n2", obs.SpanServerDecide, 10, 200))

	spans, err := Load(p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	tls := Stitch(spans)
	if len(tls) != 2 {
		t.Fatalf("%d timelines, want 2", len(tls))
	}
	s := Summarize(tls)
	if s.Episodes != 2 || s.Spans != 6 || s.Orphans != 0 {
		t.Errorf("summary %+v", s)
	}
	if s.WallMaxNanos != 300*msN || s.WallP50Nanos != 100*msN {
		t.Errorf("wall p50 %d max %d", s.WallP50Nanos, s.WallMaxNanos)
	}
	if out := s.Render(); !strings.Contains(out, "2 episodes") {
		t.Errorf("summary render:\n%s", out)
	}
	if out := tls[0].Render(); !strings.Contains(out, "episode a") || !strings.Contains(out, "orphans: none") {
		t.Errorf("timeline render:\n%s", out)
	}
}

// TestRenderShowsDecision: a handler span that computed a decision prints
// the action, value, bound gap and tier on its own line; a decision from a
// controller without stats prints no gap.
func TestRenderShowsDecision(t *testing.T) {
	call := span("ck", "client", obs.SpanClientCall, 0, 100)
	decide := span("ck", "n1", obs.SpanServerDecide, 10, 20)
	decide.Tier = "tree"
	decide.Decision = &obs.DecisionRecord{Step: 0, Action: 2, ActionName: "restart-a", Value: -4.5,
		Explanation: &obs.Explanation{QValues: []float64{-9, -5, -4.5}, LeafBound: -6, BoundGap: 1.5}}
	observe := span("ck", "n1", obs.SpanServerObserve, 40, 20)
	observe.Tier = "fsc"
	observe.Decision = &obs.DecisionRecord{Step: 1, Action: -1, Terminate: true, Value: -0.25}

	tls := Stitch([]obs.SpanRecord{call, decide, observe})
	if len(tls) != 1 {
		t.Fatalf("%d timelines, want 1", len(tls))
	}
	lines := strings.Split(tls[0].Render(), "\n")
	find := func(kind string) string {
		for _, l := range lines {
			if strings.Contains(l, kind) {
				return l
			}
		}
		t.Fatalf("no %s line in:\n%s", kind, strings.Join(lines, "\n"))
		return ""
	}
	if l := find(obs.SpanServerDecide); !strings.Contains(l, "tier=tree step=0 restart-a value=-4.5 gap=1.5") {
		t.Errorf("decide line %q lacks the decision and its gap", l)
	}
	l := find(obs.SpanServerObserve)
	if !strings.Contains(l, "tier=fsc step=1 terminate value=-0.25") {
		t.Errorf("observe line %q lacks the terminal decision", l)
	}
	if strings.Contains(l, "gap=") {
		t.Errorf("observe line %q shows a gap for a decision without stats", l)
	}
}
