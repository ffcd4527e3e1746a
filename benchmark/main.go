// Command benchmark is the served-path benchmark of record for recoverd.
// Each workload runs the daemon's real stack in one process: the offline
// policy (core.Prepare, Bootstrap, RefineBounds, CompileFSC), server.New
// behind a loopback http.Server with recoverd's timeouts, and a closed
// loop of two monitors driving it through internal/client with the
// internal/sim campaign engine. Every layer is measured from outside, by
// timing calls into its public functions.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh -workload episode_fsc -seed 1 -seconds 10 -trace 0
//	bash benchmark/run.sh -workload fleet3 -seed 1 -seconds 10 -trace 1 -spans fleet3.jsonl
//	bash benchmark/run.sh -compare runs/parent runs/change
//
// A run prints its workload, one line per metric (name, value, unit and
// sample count) and one line per correctness check, then as its last line
// a JSON object with the keys correct, attempted, failed and metrics.
// -trace 0 reports the end-to-end metrics of BENCHMARK.json; -trace 1 runs
// an untraced and a traced window and reports the per-layer metrics. The
// exit status is non-zero when a check fails.
//
// -compare reads two directories of saved run outputs and labels every
// end-to-end metric of every workload within bound, worse or unresolved
// against the bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric; BENCHMARK.json lists the same names
// and units, which the tests hold equal.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are what a user of the served system sees.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"episodes_per_s", "1/s"},
	{"step_p95_us", "us"},
	{"episode_p99_ms", "ms"},
	{"mean_cost", "cost"},
	{"max_rss_mb", "MiB"},
}

// perLayerDefs are the traced decomposition and the layer counters.
var perLayerDefs = []metricDef{
	{"sim.us_per_episode", "us"},
	{"client.us_per_episode", "us"},
	{"transport.us_per_episode", "us"},
	{"server.us_per_episode", "us"},
	{"controller.us_per_episode", "us"},
	{"checkpoint.us_per_episode", "us"},
	{"latency.step_p50_us", "us"},
	{"latency.step_p99_us", "us"},
	{"latency.episode_p50_ms", "ms"},
	{"setup.build_s", "s"},
	{"setup.bootstrap_s", "s"},
	{"setup.refine_s", "s"},
	{"setup.fsc_compile_s", "s"},
	{"setup.server_s", "s"},
	{"runtime.cpu_us_per_episode", "us"},
	{"runtime.mallocs_per_episode", "count"},
	{"runtime.alloc_bytes_per_episode", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"client.calls_per_episode", "count"},
	{"client.retries", "count"},
	{"transport.us_per_round_trip", "us"},
	{"transport.new_conns", "count"},
	{"server.requests_per_episode", "count"},
	{"server.p99_us", "us"},
	{"server.rejected", "count"},
	{"controller.decide_us", "us"},
	{"controller.decide_p99_us", "us"},
	{"controller.observe_us", "us"},
	{"controller.beliefs_per_batch", "count"},
	{"controller.us_per_belief", "us"},
	{"controller.fsc_hit_ratio", "ratio"},
	{"checkpoint.writes_per_episode", "count"},
	{"checkpoint.write_us", "us"},
	{"checkpoint.write_p99_us", "us"},
	{"fleet.redirect_share", "ratio"},
	{"fleet.redirect_us", "us"},
	{"fleet.replications_per_episode", "count"},
	{"fleet.replication_errors", "count"},
	{"fleet.accept_us", "us"},
	{"fleet.adopted", "count"},
	{"fleet.adopt_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// buildDir is where run.sh builds and where runs keep their stores and
// spans, under the working directory.
const buildDir = ".bench_build"

// spansPath is where the traced run writes its spans by default.
func spansPath(dir, workload string) string {
	return filepath.Join(dir, "spans-"+workload+".jsonl")
}

func main() {
	code, err := cli(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
	os.Exit(code)
}

// cli runs one invocation and returns its exit status.
func cli(args []string, stdout io.Writer) (int, error) {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
		seed     = fs.Uint64("seed", 1, "workload seed: fault draws, observation sampling and client keys")
		seconds  = fs.Int("seconds", 10, "length of the measured window in seconds")
		trace    = fs.Int("trace", 0, "0 reports the end-to-end metrics; 1 traces the layers and reports the per-layer metrics")
		spans    = fs.String("spans", "", "with -trace 1, write the sampled spans here (default "+spansPath(buildDir, "<workload>")+")")
		compare  = fs.Bool("compare", false, "compare two directories of saved run outputs: -compare <dirA> <dirB>")
	)
	if err := fs.Parse(args); err != nil {
		return 2, nil
	}
	if *compare {
		if fs.NArg() != 2 {
			return 2, fmt.Errorf("-compare needs two directories, got %d arguments", fs.NArg())
		}
		if err := compareDirs(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1)); err != nil {
			return 1, err
		}
		return 0, nil
	}
	wl, err := workloadByName(*workload)
	if err != nil {
		return 2, err
	}
	if *trace != 0 && *trace != 1 {
		return 2, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds < 1 {
		return 2, fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return 1, err
	}
	cfg := config{
		wl:      wl,
		seed:    *seed,
		window:  time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		workDir: buildDir,
		sz:      defaultSizes,
	}
	if cfg.trace {
		cfg.spans = *spans
		if cfg.spans == "" {
			cfg.spans = spansPath(buildDir, wl.name)
		}
	}
	res, err := run(cfg)
	if err != nil {
		return 1, err
	}
	if err := res.print(stdout, cfg); err != nil {
		return 1, err
	}
	if !res.correct() {
		return 1, fmt.Errorf("a correctness check failed")
	}
	return 0, nil
}

// report is the last line of a run's output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the run's metrics and checks, then the report line.
func (r *result) print(w io.Writer, cfg config) error {
	defs := endToEndDefs
	if cfg.trace {
		defs = perLayerDefs
	}
	fmt.Fprintf(w, "workload %s seed %d trace %v window %v\n", cfg.wl.name, cfg.seed, cfg.trace, cfg.window)
	rep := report{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", d.name, m.value)
		}
		fmt.Fprintf(w, "metric %-34s %14.6g %-6s n=%d\n", d.name, m.value, d.unit, m.n)
		rep.Metrics[d.name] = metricValue{Value: m.value, Unit: d.unit}
	}
	if cfg.trace {
		layers := make([]string, 0, len(r.decompositionNanos))
		for l := range r.decompositionNanos {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Fprintf(w, "layer %-10s %6.2f%% of worker wall\n", l, 100*ratio(float64(r.decompositionNanos[l]), float64(r.workerWallNanos)))
		}
	}
	for _, c := range r.checks {
		if c.err != nil {
			fmt.Fprintf(w, "check %s FAILED: %v\n", c.name, c.err)
		} else {
			fmt.Fprintf(w, "check %s ok\n", c.name)
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median is the middle of the values, or the mean of the middle two.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
