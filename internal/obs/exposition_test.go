package obs

import (
	"io"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestLabelValueEscaping pins the exposition-format escaping rules for label
// values: backslash, double quote, and newline must render as \\, \", and
// \n, on both plain series and histogram bucket lines.
func TestLabelValueEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("esc_total", "escaping", Label{Key: "path", Value: `a\b"c` + "\nd"}).Inc()
	reg.Histogram("esc_seconds", "escaping", []float64{1},
		Label{Key: "op", Value: "line1\nline2"}).Observe(0.5)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `esc_total{path="a\\b\"c\nd"} 1`) {
		t.Errorf("counter label not escaped:\n%s", out)
	}
	if !strings.Contains(out, `esc_seconds_bucket{op="line1\nline2",le="1"} 1`) {
		t.Errorf("histogram bucket label not escaped:\n%s", out)
	}
	// A raw newline in a label value would split the series line in two;
	// every non-comment line must parse as "name{...} value" or "name value".
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) < 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

// TestHistogramInfNaNObservations pins where non-finite observations land:
// both +Inf and NaN fall into the +Inf bucket (NaN compares false against
// every bound), the count advances, and the sum becomes non-finite without
// breaking rendering.
func TestHistogramInfNaNObservations(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("nf_seconds", "non-finite", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(math.Inf(1))

	buckets := h.Cumulative()
	if buckets[len(buckets)-1] != 2 || buckets[0] != 1 {
		t.Fatalf("after +Inf: cumulative %v, want [1 1 2]", buckets)
	}
	count, sum := h.Snapshot()
	if count != 2 || !math.IsInf(sum, 1) {
		t.Fatalf("after +Inf: count %d sum %v", count, sum)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `nf_seconds_bucket{le="+Inf"} 2`) {
		t.Errorf("+Inf bucket line missing:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "nf_seconds_sum +Inf") {
		t.Errorf("sum did not render as +Inf:\n%s", sb.String())
	}

	h.Observe(math.NaN())
	buckets = h.Cumulative()
	if buckets[len(buckets)-1] != 3 || buckets[0] != 1 || buckets[1] != 1 {
		t.Fatalf("after NaN: cumulative %v, want NaN in the +Inf bucket only", buckets)
	}
	count, sum = h.Snapshot()
	if count != 3 || !math.IsNaN(sum) {
		t.Fatalf("after NaN: count %d sum %v", count, sum)
	}
	sb.Reset()
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "nf_seconds_sum NaN") {
		t.Errorf("sum did not render as NaN:\n%s", sb.String())
	}
}

// TestWritePrometheusConcurrentUpdates scrapes the registry while a counter,
// a histogram, and a GaugeFunc are hammered from other goroutines.
// The assertion is the race detector plus render integrity: every scrape
// must produce structurally valid exposition text.
func TestWritePrometheusConcurrentUpdates(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("cc_total", "concurrent counter")
	h := reg.Histogram("ch_seconds", "concurrent histogram", []float64{0.001, 0.01, 0.1})
	var fnVal sync.Map
	fnVal.Store("v", 0.0)
	reg.GaugeFunc("cfn", "concurrent gauge func", func() float64 {
		v, _ := fnVal.Load("v")
		return v.(float64)
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				h.Observe(float64(n%100) / 1000)
				fnVal.Store("v", float64(n))
				// New registrations during a scrape must be safe too;
				// registration is idempotent so this re-resolves.
				reg.Counter("cc_total", "concurrent counter").Inc()
			}
		}(i)
	}
	for scrape := 0; scrape < 50; scrape++ {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimRight(sb.String(), "\n"), "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			if len(strings.Fields(line)) < 2 {
				t.Fatalf("scrape %d: malformed line %q", scrape, line)
			}
		}
		// Interleave a Gather too: same locks, different path.
		_ = reg.Gather()
	}
	close(stop)
	wg.Wait()
	if err := reg.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
}
