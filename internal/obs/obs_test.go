package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("recoverd_decisions_total", "decisions served")
	c.Add(3)
	r.GaugeFunc("recoverd_queue_depth", "", func() float64 { return 2.5 })
	r.GaugeFunc("recoverd_episodes_open", "open episodes", func() float64 { return 7 })

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP recoverd_decisions_total decisions served\n",
		"# TYPE recoverd_decisions_total counter\n",
		"recoverd_decisions_total 3\n",
		"# TYPE recoverd_queue_depth gauge\n",
		"recoverd_queue_depth 2.5\n",
		"recoverd_episodes_open 7\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "")
	b := r.Counter("x_total", "")
	if a != b {
		t.Error("re-registering the same counter returned a different instance")
	}
	h1 := r.Histogram("lat", "", DefLatencyBuckets, Label{"handler", "start"})
	h2 := r.Histogram("lat", "", DefLatencyBuckets, Label{"handler", "start"})
	if h1 != h2 {
		t.Error("re-registering the same labelled histogram returned a different instance")
	}
	h3 := r.Histogram("lat", "", DefLatencyBuckets, Label{"handler", "decide"})
	if h3 == h1 {
		t.Error("differently labelled histograms share an instance")
	}

	defer func() {
		if recover() == nil {
			t.Error("conflicting kind registration did not panic")
		}
	}()
	r.GaugeFunc("x_total", "", func() float64 { return 0 })
}

func TestHistogramBucketsAndRender(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("req_seconds", "request latency", []float64{0.01, 0.1, 1}, Label{"handler", "decide"})
	for _, v := range []float64{0.001, 0.01, 0.05, 0.5, 3} {
		h.Observe(v)
	}
	count, sum := h.Snapshot()
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if math.Abs(sum-3.561) > 1e-12 {
		t.Errorf("sum = %v, want 3.561", sum)
	}
	cum := h.Cumulative()
	want := []uint64{2, 3, 4, 5} // le=0.01, le=0.1, le=1, +Inf
	for i := range want {
		if cum[i] != want[i] {
			t.Errorf("cumulative[%d] = %d, want %d", i, cum[i], want[i])
		}
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, line := range []string{
		"# TYPE req_seconds histogram\n",
		`req_seconds_bucket{handler="decide",le="0.01"} 2` + "\n",
		`req_seconds_bucket{handler="decide",le="0.1"} 3` + "\n",
		`req_seconds_bucket{handler="decide",le="1"} 4` + "\n",
		`req_seconds_bucket{handler="decide",le="+Inf"} 5` + "\n",
		`req_seconds_count{handler="decide"} 5` + "\n",
	} {
		if !strings.Contains(out, line) {
			t.Errorf("output missing %q:\n%s", line, out)
		}
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines while
// scraping, asserting every scrape's cumulative buckets are monotone with
// respect to the previous scrape (the property Prometheus rate() depends
// on) and that the final counts are exact.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{0.25, 0.5, 0.75})
	const (
		workers = 8
		perW    = 5000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	scrapeErr := make(chan error, 1)
	go func() {
		prev := make([]uint64, 4)
		for {
			select {
			case <-stop:
				return
			default:
			}
			cum := h.Cumulative()
			for i := range cum {
				if cum[i] < prev[i] {
					select {
					case scrapeErr <- errNonMonotone{i, prev[i], cum[i]}:
					default:
					}
					return
				}
			}
			// Cumulative buckets must also be internally monotone.
			for i := 1; i < len(cum); i++ {
				if cum[i] < cum[i-1] {
					select {
					case scrapeErr <- errNonMonotone{i, cum[i-1], cum[i]}:
					default:
					}
					return
				}
			}
			prev = cum
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				h.Observe(float64(i%100) / 100)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	select {
	case err := <-scrapeErr:
		t.Fatal(err)
	default:
	}
	count, _ := h.Snapshot()
	if count != workers*perW {
		t.Errorf("count = %d, want %d", count, workers*perW)
	}
	cum := h.Cumulative()
	if got := cum[len(cum)-1]; got != workers*perW {
		t.Errorf("+Inf cumulative = %d, want %d", got, workers*perW)
	}
}

type errNonMonotone struct {
	bucket   int
	old, new uint64
}

func (e errNonMonotone) Error() string {
	return "non-monotone bucket"
}
