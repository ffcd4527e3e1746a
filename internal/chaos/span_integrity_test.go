package chaos_test

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"bpomdp/internal/chaos"
	"bpomdp/internal/client"
	"bpomdp/internal/controller"
	"bpomdp/internal/obs"
	"bpomdp/internal/rng"
	"bpomdp/internal/server"
	"bpomdp/internal/sim"
	"bpomdp/internal/tracestats"
)

// TestFleetChaosSpanStreamIntegrity is the distributed-tracing acceptance
// test: a 3-member span-enabled fleet runs a campaign through a span-enabled
// client, one member is SIGKILLed while serving a live episode, and the span
// files left behind — the killed member's truncated stream included — must
// stitch into one causally connected timeline per episode:
//
//   - zero orphaned edges anywhere: every redirect points at a span on its
//     target, every adoption at an earlier span on its source, every
//     successful replication at an accept on the successor;
//   - the killed episode's timeline crosses nodes and records the handoff
//     (a client failover plus an adoption edge from the corpse);
//   - per-episode latency attribution is complete: the decide / checkpoint /
//     redirect / retry-backoff / network buckets sum to the episode's
//     client-observed wall-clock within 5%.
func TestFleetChaosSpanStreamIntegrity(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet chaos campaign is slow; skipped with -short")
	}
	prep, factory, runner := twoServerFleetPrep(t)
	faults := []int{1, 2}
	const episodes = 20
	const campaignSeed = 97
	const killDuringEpisode = 7

	spanDir := t.TempDir()
	f, err := chaos.NewFleet([]string{"n1", "n2", "n3"}, t.TempDir(),
		server.Config{Model: prep.Model, NewController: factory},
		chaos.FleetOptions{VNodes: 16, SpanDir: spanDir})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	clientSpans, err := os.Create(filepath.Join(spanDir, "client.spans"))
	if err != nil {
		t.Fatal(err)
	}
	defer clientSpans.Close()
	fc, err := client.NewFleetClient(f.Members(), 16, nil,
		client.WithSpans(obs.NewSpanWriter(clientSpans), "client"),
		client.WithRetryPolicy(client.RetryPolicy{
			MaxAttempts: 3,
			BaseDelay:   time.Millisecond,
			MaxDelay:    5 * time.Millisecond,
			Budget:      5 * time.Second,
		}))
	if err != nil {
		t.Fatal(err)
	}

	killFired := false
	adopted := 0
	var killedKey string
	remote, err := runner.RunCampaignOpts(nil, nil, faults, episodes, rng.New(campaignSeed), sim.CampaignOptions{
		Workers:         1,
		ContinueOnError: true,
		EpisodeFactory: func(episode int) (controller.Controller, func(error), error) {
			ep, err := fc.StartEpisode()
			if err != nil {
				return nil, nil, err
			}
			if episode == killDuringEpisode {
				killedKey = ep.Key()
			}
			k := &killerEpisode{
				Episode:    ep,
				f:          f,
				fired:      &killFired,
				adopted:    &adopted,
				armed:      episode == killDuringEpisode,
				afterSteps: 1,
			}
			cleanup := func(err error) {
				if err != nil {
					_ = ep.Abandon()
				}
			}
			return k, cleanup, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !killFired {
		t.Fatal("the kill never fired; the campaign was not chaotic")
	}
	if remote.Abandoned != 0 {
		t.Fatalf("%d episodes abandoned, want 0 — span assertions need a clean campaign", remote.Abandoned)
	}

	// Drain background work (tombstone replication) before reading the
	// files, as a real operator would stop the survivors before collecting.
	for _, n := range f.Survivors() {
		if err := n.Srv.Close(); err != nil {
			t.Errorf("closing survivor %s: %v", n.ID, err)
		}
	}

	paths := append(f.SpanFiles(), clientSpans.Name())
	if len(paths) != 4 {
		t.Fatalf("%d span files, want 4 (3 nodes + client)", len(paths))
	}
	spans, err := tracestats.Load(paths...)
	if err != nil {
		t.Fatal(err)
	}
	tls := tracestats.Stitch(spans)
	if len(tls) != episodes {
		t.Fatalf("stitched %d episodes, want %d", len(tls), episodes)
	}

	var killed *tracestats.Timeline
	for _, tl := range tls {
		// Causal connectivity: no orphaned redirect/adoption/replication
		// edges anywhere, kill or no kill.
		for _, o := range tl.Orphans {
			t.Errorf("episode %s: orphaned edge: %s", tl.TraceID, o)
		}
		// Attribution completeness: the buckets must reconstruct the
		// episode's client-observed wall-clock within 5%.
		wall, acc := tl.WallNanos, tl.Buckets.AccountedNanos()
		if wall <= 0 {
			t.Errorf("episode %s: non-positive wall %d", tl.TraceID, wall)
			continue
		}
		diff := wall - acc
		if diff < 0 {
			diff = -diff
		}
		if float64(diff) > 0.05*float64(wall) {
			t.Errorf("episode %s: buckets account for %d of %d wall nanos (off by %.1f%%)\n%+v",
				tl.TraceID, acc, wall, 100*float64(diff)/float64(wall), tl.Buckets)
		}
		if tl.TraceID == killedKey {
			killed = tl
		}
	}
	if killed == nil {
		t.Fatalf("killed episode %s not in the stitched timelines", killedKey)
	}

	// The handoff must be visible in the killed episode's own timeline: the
	// episode touched more than one node, the client recorded a failover,
	// and a survivor recorded adopting it from the corpse.
	if len(killed.Nodes) < 2 {
		t.Errorf("killed episode touched nodes %v, want >= 2", killed.Nodes)
	}
	if killed.Failovers < 1 {
		t.Errorf("killed episode has %d failover spans, want >= 1", killed.Failovers)
	}
	adoptedEdge := false
	for _, sp := range killed.Spans {
		if sp.Kind == obs.SpanServerAdopt && sp.Source != "" {
			adoptedEdge = true
		}
	}
	if !adoptedEdge {
		t.Error("killed episode has no adoption span naming its source")
	}

	s := tracestats.Summarize(tls)
	if s.CrossNode < 1 {
		t.Errorf("summary reports %d cross-node episodes, want >= 1", s.CrossNode)
	}
	if s.Orphans != 0 {
		t.Errorf("summary reports %d orphans, want 0", s.Orphans)
	}
	t.Logf("span integrity: %d episodes, %d spans, %d cross-node, wall p95 %v\n%s",
		s.Episodes, s.Spans, s.CrossNode, time.Duration(s.WallP95Nanos), killed.Render())
}
