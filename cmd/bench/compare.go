package main

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
)

// The paired gate's rule: over pairs back-to-back measurements of the base
// and the candidate, an entry's ns/op regresses when the median of the
// pairs' candidate/base ratios exceeds 1+threshold and the candidate was
// the slower side in at least minLosses pairs.
const (
	pairs     = 5
	minLosses = 4
	threshold = 0.30
)

// Regression is one benchmark that got worse than the baseline allows.
type Regression struct {
	Name   string
	Metric string  // "ns_per_op", "allocs_per_op", or "allocs_per_episode"
	Old    float64 // baseline value
	New    float64 // current value
	Ratio  float64 // new/old; the median pair's ratio in the paired gate (time metric only)
	Losses int     // pairs the candidate ran slower in (paired gate, time metric only)
}

func (r Regression) String() string {
	switch r.Metric {
	case "allocs_per_op":
		return fmt.Sprintf("%s: allocs/op %v -> %v", r.Name, int64(r.Old), int64(r.New))
	case "allocs_per_episode":
		return fmt.Sprintf("%s: allocs/episode %v -> %v", r.Name, int64(r.Old), int64(r.New))
	}
	return fmt.Sprintf("%s: ns/op %.0f -> %.0f (paired %.2fx, slower in %d/%d pairs)", r.Name, r.Old, r.New, r.Ratio, r.Losses, pairs)
}

// compareReports diffs the current run against a baseline: a benchmark
// regresses when its ns/op exceeds the baseline by more than the fractional
// threshold, or when its allocations grow. For the micro kernels allocation
// counts are exact, so any allocs/op growth is a real regression, not noise.
// Campaign entries run whole fault-injection campaigns whose totals carry a
// little runtime jitter (first-iteration warmup, goroutine machinery), so
// they are gated on allocs/episode instead, with slack of one alloc/episode
// or 1% of the baseline, whichever is larger: arena'd paths sitting at a
// few allocs/episode keep the tight absolute gate, while unarena'd paths in
// the hundreds jitter by a few allocs from cold-iteration amortization and
// get proportional room instead of flaking.
// Benchmarks present in only one report are ignored — new benchmarks are not
// regressions, and retired ones have nothing to compare against.
func compareReports(old, cur *Report, threshold float64) []Regression {
	var out []Regression
	names := make([]string, 0, len(cur.Bench))
	for name := range cur.Bench {
		if _, ok := old.Bench[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		o, n := old.Bench[name], cur.Bench[name]
		if o.NsPerOp > 0 && n.NsPerOp > o.NsPerOp*(1+threshold) {
			out = append(out, Regression{
				Name: name, Metric: "ns_per_op",
				Old: o.NsPerOp, New: n.NsPerOp, Ratio: n.NsPerOp / o.NsPerOp,
			})
		}
		switch {
		case o.Episodes > 0 && n.Episodes > 0:
			slack := max(int64(1), o.AllocsPerEp/100)
			if n.AllocsPerEp > o.AllocsPerEp+slack {
				out = append(out, Regression{
					Name: name, Metric: "allocs_per_episode",
					Old: float64(o.AllocsPerEp), New: float64(n.AllocsPerEp),
				})
			}
		case n.AllocsPerOp > o.AllocsPerOp:
			out = append(out, Regression{
				Name: name, Metric: "allocs_per_op",
				Old: float64(o.AllocsPerOp), New: float64(n.AllocsPerOp),
			})
		}
	}
	return out
}

// comparePairs rules on paired measurements, base[i] and cand[i] taken
// back to back. Allocations go through compareReports on the two sides'
// medians: their counts are exact, so median growth needs no win count.
// Time is ruled on per pair, since a burst of host load slows both sides
// of a pair alike but not two pairs alike: ns/op regresses when the median
// of the pairs' cand/base ratios exceeds 1+threshold and the candidate was
// slower in at least minLosses pairs.
func comparePairs(base, cand []*Report) []Regression {
	old, cur := medianReport(base), medianReport(cand)
	out := compareReports(old, cur, math.Inf(1))
	names := make([]string, 0, len(cur.Bench))
	for name := range cur.Bench {
		if _, ok := old.Bench[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		r := Regression{Name: name, Metric: "ns_per_op", Old: old.Bench[name].NsPerOp, New: cur.Bench[name].NsPerOp}
		ratios := make([]float64, len(base))
		for i := range base {
			b, c := base[i].Bench[name].NsPerOp, cand[i].Bench[name].NsPerOp
			ratios[i] = c / b
			if c > b {
				r.Losses++
			}
		}
		if r.Ratio = median(ratios); r.Ratio > 1+threshold && r.Losses >= minLosses {
			out = append(out, r)
		}
	}
	return out
}

// medianReport is reps' first report with each benchmark's ns/op, allocs/op
// and B/op replaced by their medians over the reports; a benchmark missing
// from any of them is dropped.
func medianReport(reps []*Report) *Report {
	med := *reps[0]
	med.Bench = make(map[string]Entry, len(med.Bench))
	for name, e := range reps[0].Bench {
		var ns []float64
		var allocs, bytes []int64
		for _, r := range reps {
			x, ok := r.Bench[name]
			if !ok {
				break
			}
			ns = append(ns, x.NsPerOp)
			allocs = append(allocs, x.AllocsPerOp)
			bytes = append(bytes, x.BytesPerOp)
		}
		if len(ns) < len(reps) {
			continue
		}
		e.NsPerOp, e.AllocsPerOp, e.BytesPerOp = median(ns), median(allocs), median(bytes)
		e.derive()
		med.Bench[name] = e
	}
	return &med
}

// median returns the middle of xs (the upper middle for an even count),
// sorting xs in place.
func median[T cmp.Ordered](xs []T) T {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// printComparison renders a per-benchmark old/new table to w.
func printComparison(w io.Writer, old, cur *Report) {
	names := make([]string, 0, len(cur.Bench))
	for name := range cur.Bench {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-30s %14s %14s %8s %10s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs/op")
	for _, name := range names {
		n := cur.Bench[name]
		o, ok := old.Bench[name]
		if !ok {
			fmt.Fprintf(w, "%-30s %14s %14.0f %8s %10d\n", name, "-", n.NsPerOp, "new", n.AllocsPerOp)
			continue
		}
		delta := "0%"
		if o.NsPerOp > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(n.NsPerOp-o.NsPerOp)/o.NsPerOp)
		}
		allocs := fmt.Sprintf("%d", n.AllocsPerOp)
		if n.AllocsPerOp != o.AllocsPerOp {
			allocs = fmt.Sprintf("%d->%d", o.AllocsPerOp, n.AllocsPerOp)
		}
		fmt.Fprintf(w, "%-30s %14.0f %14.0f %8s %10s\n", name, o.NsPerOp, n.NsPerOp, delta, allocs)
	}
}
