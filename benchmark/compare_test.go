package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, m, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || m != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, m, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, m, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || m != 2 || q3 != 4 {
		t.Errorf("quartiles of 1,2,4 = %v %v %v, want 1 2 4", q1, m, q3)
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 100.5}
	cases := []struct {
		name   string
		b      []float64
		better string
		bound  float64
		want   string
	}{
		{"unchanged", []float64{100, 100.5, 99.5, 100, 101}, "lower", 0.05, withinBound},
		{"slower within the bound", []float64{103, 104, 103.5, 102.5, 103}, "lower", 0.05, withinBound},
		{"slower past the bound", []float64{110, 111, 109, 110, 110.5}, "lower", 0.05, worse},
		{"lower throughput past the bound", []float64{90, 91, 89, 90, 90.5}, "higher", 0.05, worse},
		{"spread wider than the bound", []float64{80, 120, 100, 60, 140}, "lower", 0.05, unresolved},
		{"noisy but every run better", []float64{50, 70, 60, 40, 80}, "lower", 0.05, withinBound},
	}
	for _, c := range cases {
		if got := verdict(parent, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestCompareDirs runs -compare over synthetic saved runs.
func TestCompareDirs(t *testing.T) {
	root := t.TempDir()
	def := `{"end_to_end": [
		{"name": "episodes_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
		{"name": "step_p50_us", "unit": "us", "better": "lower", "bound": 0.1}],
	 "per_layer": [{"name": "server.p99_us", "unit": "us", "better": "lower"}]}`
	defPath := filepath.Join(root, "BENCHMARK.json")
	if err := os.WriteFile(defPath, []byte(def), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(dir string, i int, rate, step float64) {
		t.Helper()
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		out := fmt.Sprintf("workload episode_fsc seed %d trace false window 10s\nmetric ...\n"+
			`{"correct":true,"attempted":10,"failed":0,"metrics":{"episodes_per_s":{"value":%g,"unit":"1/s"},"step_p50_us":{"value":%g,"unit":"us"},"server.p99_us":{"value":7,"unit":"us"}}}`+"\n",
			i, rate, step)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("run-%d.txt", i)), []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	a, b := filepath.Join(root, "a"), filepath.Join(root, "b")
	for i := 0; i < 5; i++ {
		write(a, i, 1000+float64(i), 50+float64(i)/10)
		write(b, i, 700+float64(i), 51+float64(i)/10)
	}
	var out bytes.Buffer
	if err := compareDirs(&out, defPath, a, b); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"episodes_per_s", "1002 [1000.5, 1003.5] n=5", "higher: worse",
		"step_p50_us", "lower: within bound",
		"server.p99_us",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("compare output lacks %q:\n%s", want, got)
		}
	}
}
