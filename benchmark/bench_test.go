package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bpomdp/internal/obs"
)

// tinySizes bound every window by work so that a test run is quick and
// its traced and untraced windows run the same episodes.
var tinySizes = sizes{setups: 1, warmupChunks: 1, chunkSize: 8, timedChunks: 4, adoptOpen: 4}

// TestWorkloads runs every workload at tiny sizes, untraced and traced,
// and holds the printed metrics to BENCHMARK.json.
func TestWorkloads(t *testing.T) {
	def, err := loadBenchmarkDef(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			name := wl.name + "/untraced"
			if trace {
				name = wl.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				cfg := config{wl: wl, seed: 7, trace: trace, workDir: dir, sz: tinySizes}
				if trace {
					cfg.spans = filepath.Join(dir, "spans.jsonl")
				}
				res, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := res.print(&out, cfg); err != nil {
					t.Fatal(err)
				}
				for _, c := range res.checks {
					if c.err != nil {
						t.Errorf("check %s: %v", c.name, c.err)
					}
				}
				if res.failed != 0 || res.attempted == 0 {
					t.Errorf("attempted %d, failed %d", res.attempted, res.failed)
				}
				want := make(map[string]string)
				if trace {
					for _, m := range def.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range def.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				checkPrinted(t, out.String(), want)
				if trace {
					checkDecomposition(t, res)
					checkSameServerPaths(t, wl, res)
					// Episodes keep spans by key hash, so a tiny run may
					// sample none; every worker's first batch round is kept.
					checkSpans(t, cfg.spans, wl.batch)
				}
			})
		}
	}
}

// checkPrinted holds the metric lines and the report line to want's names
// and units.
func checkPrinted(t *testing.T, out string, want map[string]string) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	printed := make(map[string]string)
	for _, line := range lines {
		f := strings.Fields(line)
		if len(f) >= 4 && f[0] == "metric" {
			printed[f[1]] = f[3]
		}
	}
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line is not a report: %v", err)
	}
	if !rep.Correct {
		t.Error("report says incorrect")
	}
	if len(printed) != len(want) || len(rep.Metrics) != len(want) {
		t.Errorf("printed %d metric lines and %d report metrics, BENCHMARK.json lists %d", len(printed), len(rep.Metrics), len(want))
	}
	for name, unit := range want {
		if printed[name] != unit {
			t.Errorf("metric %s printed with unit %q, BENCHMARK.json says %q", name, printed[name], unit)
		}
		if rep.Metrics[name].Unit != unit {
			t.Errorf("metric %s reported with unit %q, BENCHMARK.json says %q", name, rep.Metrics[name].Unit, unit)
		}
	}
}

// checkDecomposition holds the traced layer self times to the workers'
// wall time: none negative, and together within 1% of it.
func checkDecomposition(t *testing.T, res *result) {
	t.Helper()
	var sum int64
	for layer, nanos := range res.decompositionNanos {
		if nanos < 0 {
			t.Errorf("layer %s has negative self time %d ns", layer, nanos)
		}
		sum += nanos
	}
	wall := res.workerWallNanos
	if wall <= 0 || math.Abs(float64(sum-wall)) > 0.01*float64(wall) {
		t.Errorf("layers sum to %d ns, workers' wall time is %d ns", sum, wall)
	}
}

// checkSameServerPaths: the run's own check holds the traced window's FSC
// hit, fallback and tier counts equal to the untraced window's, which fails
// if a wrapper hides TierSource; this makes sure there was something to
// count.
func checkSameServerPaths(t *testing.T, wl *workload, res *result) {
	t.Helper()
	if tr := res.traced; wl.fsc && (tr.fscHits == 0 || tr.tierFSC != float64(tr.fscHits)) {
		t.Errorf("traced run served %d FSC hits, %v decisions filed under tier fsc", tr.fscHits, tr.tierFSC)
	}
}

// checkSpans decodes the span file with the repository's own decoder.
func checkSpans(t *testing.T, path string, wantSome bool) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := obs.DecodeSpans(bufio.NewReader(f))
	if err != nil {
		t.Fatal(err)
	}
	if wantSome && len(spans) == 0 {
		t.Error("no spans kept")
	}
}

// TestLatencyHistQuantile holds the histogram's quantiles within its 2%
// bucket width of the exact nearest-rank values, and checks that they
// move with the counts inside one bucket.
func TestLatencyHistQuantile(t *testing.T) {
	var h latencyHist
	if got := h.quantileMicros(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	for us := 1; us <= 1000; us++ {
		h.observe(time.Duration(us) * time.Microsecond)
	}
	if h.count() != 1000 {
		t.Fatalf("count = %d, want 1000", h.count())
	}
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 1} {
		want := math.Ceil(q * 1000) // exact nearest rank, in microseconds
		if got := h.quantileMicros(q); math.Abs(got-want) > 0.02*want {
			t.Errorf("q%v = %v us, want %v within 2%%", q, got, want)
		}
	}

	var one latencyHist
	for i := 0; i < 4; i++ {
		one.observe(500 * time.Microsecond)
	}
	lo, hi := one.quantileMicros(0.25), one.quantileMicros(1)
	if !(lo < hi) || hi < 500 || hi > 500*histGrowth {
		t.Errorf("four equal samples read %v at q0.25 and %v at q1; want rising values in 500's bucket", lo, hi)
	}
}

// TestWorkloadsMatchBenchmarkJSON holds every workload BENCHMARK.json
// gates to one the program runs, with the same reason.
func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json gates %d workloads, want at least 2", len(def.Workloads))
	}
	for _, w := range def.Workloads {
		wl, err := workloadByName(w.Name)
		if err != nil {
			t.Error(err)
			continue
		}
		if w.Why != wl.why {
			t.Errorf("workload %s: BENCHMARK.json gives the reason %q, the program %q", w.Name, w.Why, wl.why)
		}
	}
}
