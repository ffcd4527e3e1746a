package tracestats

import (
	"fmt"
	"strings"
	"time"

	"bpomdp/internal/obs"
)

func ms(nanos int64) string {
	return fmt.Sprintf("%.3fms", float64(nanos)/float64(time.Millisecond))
}

func pct(part, whole int64) string {
	if whole <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(whole))
}

// decisionDetail tells the decision a handler span computed: the action
// chosen (or the termination), its value, and — when the controller
// collected stats — the bound gap that explains it.
func decisionDetail(d *obs.DecisionRecord) string {
	what := d.ActionName
	switch {
	case d.Terminate:
		what = "terminate"
	case what == "":
		what = fmt.Sprintf("action %d", d.Action)
	}
	out := fmt.Sprintf("step=%d %s value=%.4g", d.Step, what, d.Value)
	if d.Explanation != nil {
		out += fmt.Sprintf(" gap=%.4g", d.BoundGap)
	}
	return out
}

// Render formats one episode's stitched timeline for reading: every span on
// its own line with the offset from first activity, the emitting node, and
// the span's story (tier and decision, status, attempt numbers, redirect
// targets), then the wall-clock attribution.
func (tl *Timeline) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "episode %s", tl.TraceID)
	if tl.Episode != 0 {
		fmt.Fprintf(&sb, " (id %d)", tl.Episode)
	}
	fmt.Fprintf(&sb, " — nodes %s, %d hops, %d redirects, %d failovers, wall %s\n",
		strings.Join(tl.Nodes, "→"), tl.Hops, tl.Redirects, tl.Failovers, ms(tl.WallNanos))

	t0 := tl.Spans[0].Start
	for i := range tl.Spans {
		sp := &tl.Spans[i]
		var detail []string
		if sp.Op != "" {
			detail = append(detail, sp.Op)
		}
		if sp.Tier != "" {
			detail = append(detail, "tier="+sp.Tier)
		}
		if d := sp.Decision; d != nil {
			detail = append(detail, decisionDetail(d))
		}
		if sp.Status != 0 {
			detail = append(detail, fmt.Sprintf("status=%d", sp.Status))
		}
		if sp.Attempt != 0 {
			detail = append(detail, fmt.Sprintf("attempt=%d", sp.Attempt))
		}
		if sp.Target != "" {
			detail = append(detail, "→"+sp.Target)
		}
		if sp.Source != "" {
			detail = append(detail, "from="+sp.Source)
		}
		if sp.Err != "" {
			detail = append(detail, "err="+sp.Err)
		}
		fmt.Fprintf(&sb, "  +%-12s %-8s %-18s %-10s %s\n",
			ms(sp.Start-t0), sp.Node, sp.Kind, ms(sp.Duration), strings.Join(detail, " "))
		for _, ev := range sp.Events {
			fmt.Fprintf(&sb, "  +%-12s %-8s   · %s %s\n", ms(ev.At-t0), sp.Node, ev.Name, ev.Detail)
		}
	}

	b, w := tl.Buckets, tl.WallNanos
	fmt.Fprintf(&sb, "  attribution: decide %s (%s), observe %s, start %s, other %s, checkpoint %s (%s), adopt %s, redirect %s, backoff %s, network %s (%s), client %s; background %s\n",
		ms(b.DecideNanos), pct(b.DecideNanos, w), ms(b.ObserveNanos), ms(b.StartNanos),
		ms(b.OtherServerNanos), ms(b.CheckpointNanos), pct(b.CheckpointNanos, w),
		ms(b.AdoptNanos), ms(b.RedirectNanos), ms(b.RetryBackoffNanos),
		ms(b.NetworkNanos), pct(b.NetworkNanos, w), ms(b.ClientNanos), ms(b.BackgroundNanos))
	fmt.Fprintf(&sb, "  accounted: %s of %s wall (%s)\n", ms(b.AccountedNanos()), ms(w), pct(b.AccountedNanos(), w))
	if len(tl.Orphans) == 0 {
		sb.WriteString("  orphans: none\n")
	} else {
		for _, o := range tl.Orphans {
			fmt.Fprintf(&sb, "  ORPHAN: %s\n", o)
		}
	}
	return sb.String()
}

// Render formats the fleet-level aggregate.
func (s Summary) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d episodes, %d spans, %d cross-node, %d orphaned edges\n",
		s.Episodes, s.Spans, s.CrossNode, s.Orphans)
	fmt.Fprintf(&sb, "wall: p50 %s  p95 %s  p99 %s  max %s\n",
		ms(s.WallP50Nanos), ms(s.WallP95Nanos), ms(s.WallP99Nanos), ms(s.WallMaxNanos))
	b, w := s.Totals, s.TotalWallNanos
	rows := []struct {
		name string
		v    int64
	}{
		{"decide", b.DecideNanos},
		{"observe", b.ObserveNanos},
		{"start", b.StartNanos},
		{"other-server", b.OtherServerNanos},
		{"checkpoint", b.CheckpointNanos},
		{"adopt", b.AdoptNanos},
		{"redirect", b.RedirectNanos},
		{"retry-backoff", b.RetryBackoffNanos},
		{"network", b.NetworkNanos},
		{"client", b.ClientNanos},
	}
	fmt.Fprintf(&sb, "attribution of %s total wall:\n", ms(w))
	for _, row := range rows {
		fmt.Fprintf(&sb, "  %-14s %12s  %s\n", row.name, ms(row.v), pct(row.v, w))
	}
	fmt.Fprintf(&sb, "  %-14s %12s  (outside client calls; excluded from wall)\n", "background", ms(b.BackgroundNanos))
	return sb.String()
}
