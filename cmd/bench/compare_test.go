package main

import (
	"strings"
	"testing"
)

func report(bench map[string]Entry) *Report {
	return &Report{Schema: benchSchema, Bench: bench}
}

func TestCompareReports(t *testing.T) {
	old := report(map[string]Entry{
		"fast":    {NsPerOp: 100, AllocsPerOp: 2},
		"allocs":  {NsPerOp: 100, AllocsPerOp: 2},
		"retired": {NsPerOp: 100},
	})
	cur := report(map[string]Entry{
		"fast":   {NsPerOp: 90, AllocsPerOp: 2},  // improved
		"allocs": {NsPerOp: 100, AllocsPerOp: 3}, // any alloc growth regresses
		"new":    {NsPerOp: 1e9, AllocsPerOp: 9}, // no baseline — ignored
	})
	regs := compareReports(old, cur)
	if len(regs) != 1 {
		t.Fatalf("got %d regressions %+v, want 1", len(regs), regs)
	}
	if regs[0].Name != "allocs" || regs[0].Metric != "allocs_per_op" {
		t.Errorf("regression %+v, want allocs/allocs_per_op", regs[0])
	}
}

func TestPrintComparison(t *testing.T) {
	old := report(map[string]Entry{"b": {NsPerOp: 100, AllocsPerOp: 5}})
	cur := report(map[string]Entry{
		"b":   {NsPerOp: 150, AllocsPerOp: 6},
		"new": {NsPerOp: 10, AllocsPerOp: 0},
	})
	var sb strings.Builder
	printComparison(&sb, old, cur)
	out := sb.String()
	for _, want := range []string{"+50.0%", "5->6", "new"} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison table missing %q:\n%s", want, out)
		}
	}
}

// pairedRuns returns five base and five candidate reports of entry name,
// the base always at 100 ns/op and 2 allocs/op and the candidate at the
// given ns/op and allocs/op in each pair.
func pairedRuns(name string, candNs []float64, candAllocs int64) (base, cand []*Report) {
	for _, ns := range candNs {
		base = append(base, report(map[string]Entry{name: {NsPerOp: 100, AllocsPerOp: 2}}))
		cand = append(cand, report(map[string]Entry{name: {NsPerOp: ns, AllocsPerOp: candAllocs}}))
	}
	return base, cand
}

// TestIntersectRegressions: a regression must be seen across the repeated
// runs to be reported. A slowdown in every pair and an allocation growth
// survive; a slowdown in two pairs of five is exonerated; an entry only the
// candidate measured is ignored. The reported ratio is the median pair's.
func TestIntersectRegressions(t *testing.T) {
	slow := []float64{160, 140, 150, 145, 155}
	flaky := []float64{150, 100, 100, 150, 100}
	var base, cand []*Report
	for i := range slow {
		base = append(base, report(map[string]Entry{
			"slow":   {NsPerOp: 100, AllocsPerOp: 2},
			"flaky":  {NsPerOp: 100, AllocsPerOp: 2},
			"allocs": {NsPerOp: 100, AllocsPerOp: 2},
		}))
		cand = append(cand, report(map[string]Entry{
			"slow":   {NsPerOp: slow[i], AllocsPerOp: 2},
			"flaky":  {NsPerOp: flaky[i], AllocsPerOp: 2},
			"allocs": {NsPerOp: 100, AllocsPerOp: 3},
			"other":  {NsPerOp: 200, AllocsPerOp: 2},
		}))
	}
	got := comparePairs(base, cand)
	if len(got) != 2 {
		t.Fatalf("got %d regressions %+v, want 2 (flaky exonerated, other absent from base)", len(got), got)
	}
	if got[0].Name != "allocs" || got[0].Metric != "allocs_per_op" {
		t.Errorf("first survivor %+v, want allocs/allocs_per_op", got[0])
	}
	if got[1].Name != "slow" || got[1].Metric != "ns_per_op" || got[1].Ratio != 1.5 || got[1].Losses != pairs {
		t.Errorf("second survivor %+v, want slow/ns_per_op at the median 1.5x, slower in every pair", got[1])
	}
}

// TestIntersectRegressionsCleanPass: a slowdown seen in the first pair only
// is cleared by the clean pairs after it.
func TestIntersectRegressionsCleanPass(t *testing.T) {
	base, cand := pairedRuns("slow", []float64{150, 100, 100, 100, 100}, 2)
	if got := comparePairs(base, cand); len(got) != 0 {
		t.Errorf("clean later pairs left survivors: %+v", got)
	}
}

// TestComparePairs: the paired gate flags an ns/op slowdown only when the
// median exceeds the threshold and the candidate lost at least four of five
// pairs, flags any allocs/op growth of the median whatever the pairs say,
// and ignores entries measured on one side only.
func TestComparePairs(t *testing.T) {
	cases := []struct {
		name   string
		candNs []float64
		allocs int64
		want   []string // Metric of each regression, in order
	}{
		{"31% slower, loses 4 of 5", []float64{131, 140, 131, 90, 135}, 2, []string{"ns_per_op"}},
		{"31% slower, loses 3 of 5", []float64{131, 140, 131, 90, 95}, 2, nil},
		{"one extra alloc, wins every pair", []float64{90, 90, 90, 90, 90}, 3, []string{"allocs_per_op"}},
		{"one extra alloc, loses every pair", []float64{110, 110, 110, 110, 110}, 3, []string{"allocs_per_op"}},
		{"29% slower everywhere", []float64{129, 129, 129, 129, 129}, 2, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base, cand := pairedRuns("b", c.candNs, c.allocs)
			regs := comparePairs(base, cand)
			if len(regs) != len(c.want) {
				t.Fatalf("got %+v, want metrics %v", regs, c.want)
			}
			for i, r := range regs {
				if r.Name != "b" || r.Metric != c.want[i] {
					t.Errorf("regression %d = %+v, want b/%s", i, r, c.want[i])
				}
			}
		})
	}

	t.Run("one side only", func(t *testing.T) {
		base, cand := pairedRuns("b", []float64{100, 100, 100, 100, 100}, 2)
		for i := range base {
			base[i].Bench["retired"] = Entry{NsPerOp: 1}
			cand[i].Bench["new"] = Entry{NsPerOp: 1e9, AllocsPerOp: 9}
		}
		if regs := comparePairs(base, cand); len(regs) != 0 {
			t.Errorf("entries on one side flagged: %+v", regs)
		}
	})
}

func TestCompareReportsCampaignAllocSlack(t *testing.T) {
	old := report(map[string]Entry{
		"campaign": {NsPerOp: 1e6, AllocsPerOp: 885, Episodes: 64, AllocsPerEp: 13},
	})
	// Campaign allocation totals jitter with the iteration count; one
	// alloc/episode of slack absorbs that without admitting real leaks.
	within := report(map[string]Entry{
		"campaign": {NsPerOp: 1e6, AllocsPerOp: 896, Episodes: 64, AllocsPerEp: 14},
	})
	if regs := compareReports(old, within); len(regs) != 0 {
		t.Errorf("one alloc/episode of growth flagged: %+v", regs)
	}
	leak := report(map[string]Entry{
		"campaign": {NsPerOp: 1e6, AllocsPerOp: 960, Episodes: 64, AllocsPerEp: 15},
	})
	regs := compareReports(old, leak)
	if len(regs) != 1 || regs[0].Metric != "allocs_per_episode" {
		t.Fatalf("two allocs/episode of growth not flagged: %+v", regs)
	}
	if regs[0].Old != 13 || regs[0].New != 15 {
		t.Errorf("regression values %+v, want 13 -> 15", regs[0])
	}
}

func TestCompareReportsCampaignAllocSlackProportional(t *testing.T) {
	// Unarena'd paths in the hundreds of allocs/episode jitter by a few
	// allocs from cold-iteration amortization; the slack scales to 1% of
	// the baseline so they don't flake, while real growth still fails.
	old := report(map[string]Entry{
		"campaign": {NsPerOp: 1e6, AllocsPerOp: 28000, Episodes: 64, AllocsPerEp: 437},
	})
	within := report(map[string]Entry{
		"campaign": {NsPerOp: 1e6, AllocsPerOp: 28200, Episodes: 64, AllocsPerEp: 441},
	})
	if regs := compareReports(old, within); len(regs) != 0 {
		t.Errorf("jitter within 1%% flagged: %+v", regs)
	}
	leak := report(map[string]Entry{
		"campaign": {NsPerOp: 1e6, AllocsPerOp: 28500, Episodes: 64, AllocsPerEp: 443},
	})
	regs := compareReports(old, leak)
	if len(regs) != 1 || regs[0].Metric != "allocs_per_episode" {
		t.Fatalf("growth beyond the proportional slack not flagged: %+v", regs)
	}
}
