package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkDef is the part of BENCHMARK.json -compare reads.
type benchmarkDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkDef(path string) (*benchmarkDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchmarkDef
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

// loadRuns reads every saved run output in dir: its first line names the
// workload and its last line is the report. It returns each workload's
// metric values, one per run.
func loadRuns(dir string) (map[string]map[string][]float64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[string][]float64)
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		wl, rep, err := readRun(path)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if out[wl] == nil {
			out[wl] = make(map[string][]float64)
		}
		for name, v := range rep.Metrics {
			out[wl][name] = append(out[wl][name], v.Value)
		}
	}
	return out, nil
}

func readRun(path string) (string, report, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", report{}, err
	}
	defer f.Close()
	var first, last string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if first == "" {
			first = line
		}
		last = line
	}
	if err := sc.Err(); err != nil {
		return "", report{}, err
	}
	fields := strings.Fields(first)
	if len(fields) < 2 || fields[0] != "workload" {
		return "", report{}, fmt.Errorf("first line %q does not name a workload", first)
	}
	var rep report
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return "", report{}, fmt.Errorf("last line is not a report: %w", err)
	}
	return fields[1], rep, nil
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) and statistics.median do.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 { // Python's "exclusive" method
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), median(s), q(3)
}

// Verdicts of one metric on one workload.
const (
	withinBound = "within bound"
	worse       = "worse"
	unresolved  = "unresolved"
)

// verdict labels change runs b against parent runs a by the rule of the
// choosing-metrics guide: b is worse when its median is worse than a's by
// more than bound, as a share of a's median. When either side's spread
// between quartiles, as a share of its median, is wider than the bound the
// pair is unresolved, unless every run of b reads better than every run of
// a.
func verdict(a, b []float64, better string, bound float64) string {
	lower := better == "lower"
	if allBetter(a, b, lower) {
		return withinBound
	}
	if relSpread(a) > bound || relSpread(b) > bound {
		return unresolved
	}
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	change := mb - ma
	if !lower {
		change = -change
	}
	if share(change, ma) > bound {
		return worse
	}
	return withinBound
}

// share is x as a share of base; a non-zero x against a zero base is
// infinite.
func share(x, base float64) float64 {
	if x == 0 {
		return 0
	}
	if base == 0 {
		return math.Inf(int(math.Copysign(1, x)))
	}
	return x / math.Abs(base)
}

func relSpread(v []float64) float64 {
	q1, m, q3 := quartiles(v)
	return share(q3-q1, m)
}

func allBetter(a, b []float64, lower bool) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if (lower && y >= x) || (!lower && y <= x) {
				return false
			}
		}
	}
	return true
}

// compareDirs prints, for every workload and metric found in either
// directory, each side's median and quartiles, and for end-to-end metrics
// the verdict against BENCHMARK.json's bound.
func compareDirs(w io.Writer, defPath, dirA, dirB string) error {
	def, err := loadBenchmarkDef(defPath)
	if err != nil {
		return err
	}
	a, err := loadRuns(dirA)
	if err != nil {
		return err
	}
	b, err := loadRuns(dirB)
	if err != nil {
		return err
	}
	wls := make(map[string]bool)
	for wl := range a {
		wls[wl] = true
	}
	for wl := range b {
		wls[wl] = true
	}
	names := make([]string, 0, len(wls))
	for wl := range wls {
		names = append(names, wl)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "A = %s, B = %s; median [first quartile, third quartile] over runs\n", dirA, dirB)
	cell := func(v []float64) string {
		if len(v) == 0 {
			return "-"
		}
		q1, m, q3 := quartiles(v)
		return fmt.Sprintf("%.6g [%.6g, %.6g] n=%d", m, q1, q3, len(v))
	}
	for _, wl := range names {
		fmt.Fprintf(w, "\n%s\n", wl)
		for _, m := range def.EndToEnd {
			va, vb := a[wl][m.Name], b[wl][m.Name]
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			label := unresolved
			if len(va) > 0 && len(vb) > 0 {
				label = verdict(va, vb, m.Better, m.Bound)
			}
			fmt.Fprintf(w, "  %-34s A %-40s B %-40s bound %g%% %s: %s\n",
				m.Name, cell(va), cell(vb), 100*m.Bound, m.Better, label)
		}
		for _, m := range def.PerLayer {
			va, vb := a[wl][m.Name], b[wl][m.Name]
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-34s A %-40s B %-40s\n", m.Name, cell(va), cell(vb))
		}
	}
	return nil
}
