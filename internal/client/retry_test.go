package client

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestBackoffSchedule(t *testing.T) {
	// With Rand pinned to 0.5, the full-jitter draw is exactly half the
	// exponential ceiling, so the whole schedule is checkable.
	p := RetryPolicy{
		BaseDelay: 10 * time.Millisecond,
		MaxDelay:  80 * time.Millisecond,
		Rand:      func() float64 { return 0.5 },
	}.withDefaults()
	cases := []struct {
		attempt int
		want    time.Duration
	}{
		{0, 5 * time.Millisecond},   // ceil = base
		{1, 10 * time.Millisecond},  // ceil = 2·base
		{2, 20 * time.Millisecond},  // ceil = 4·base
		{3, 40 * time.Millisecond},  // ceil = cap (80ms)
		{10, 40 * time.Millisecond}, // still capped
		{70, 40 * time.Millisecond}, // shift would overflow; capped
	}
	for _, tc := range cases {
		if got := p.backoff(tc.attempt); got != tc.want {
			t.Errorf("backoff(%d) = %v, want %v", tc.attempt, got, tc.want)
		}
	}
}

func TestBackoffJitterRange(t *testing.T) {
	p := RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 64 * time.Millisecond}.withDefaults()
	for attempt := 0; attempt < 10; attempt++ {
		ceil := time.Duration(1<<uint(attempt)) * time.Millisecond
		if ceil > p.MaxDelay {
			ceil = p.MaxDelay
		}
		for i := 0; i < 200; i++ {
			d := p.backoff(attempt)
			if d < 0 || d >= ceil {
				t.Fatalf("backoff(%d) = %v outside [0, %v)", attempt, d, ceil)
			}
		}
	}
}

func TestRetryableClassification(t *testing.T) {
	read := &net.OpError{Op: "read", Net: "tcp", Err: errors.New("reset")}
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"transport-idem", fmt.Errorf("wrap: %w", read), true},
		{"429", &statusError{code: http.StatusTooManyRequests}, true},
		{"500-idem", &statusError{code: http.StatusInternalServerError}, true},
		{"503-idem", &statusError{code: http.StatusServiceUnavailable}, true},
		{"404-idem", &statusError{code: http.StatusNotFound}, false},
		{"409-idem", &statusError{code: http.StatusConflict}, false},
		{"422-idem", &statusError{code: http.StatusUnprocessableEntity}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := retryable(tc.err); got != tc.want {
				t.Errorf("retryable(%v) = %v, want %v", tc.err, got, tc.want)
			}
		})
	}
}

func TestRetryAfterHonoured(t *testing.T) {
	var hits atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"busy"}`, http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"episodeId":7}`)
	}))
	defer hs.Close()

	var slept []time.Duration
	c, err := New(hs.URL, hs.Client(), WithRetryPolicy(RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Microsecond,
		MaxDelay:    time.Microsecond,
		Budget:      5 * time.Second,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	}))
	if err != nil {
		t.Fatal(err)
	}
	ep, err := c.StartEpisode()
	if err != nil {
		t.Fatal(err)
	}
	if ep.ID() != 7 {
		t.Errorf("episode id %d", ep.ID())
	}
	if len(slept) != 1 || slept[0] != time.Second {
		t.Errorf("sleeps %v, want [1s] from Retry-After", slept)
	}
}

func TestRetryBudgetExhaustion(t *testing.T) {
	var hits atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		http.Error(w, `{"error":"kaboom"}`, http.StatusInternalServerError)
	}))
	defer hs.Close()

	// Each backoff is exactly 8ms (Rand pinned to 1 is illegal; pin 0.5 of
	// a 16ms ceiling); a 20ms budget admits two retries, not three.
	var slept time.Duration
	c, err := New(hs.URL, hs.Client(), WithRetryPolicy(RetryPolicy{
		MaxAttempts: 10,
		BaseDelay:   16 * time.Millisecond,
		MaxDelay:    16 * time.Millisecond,
		Budget:      20 * time.Millisecond,
		Rand:        func() float64 { return 0.5 },
		Sleep:       func(d time.Duration) { slept += d },
	}))
	if err != nil {
		t.Fatal(err)
	}
	err = c.do(http.MethodGet, "/v1/model", nil, nil, nil)
	if err == nil {
		t.Fatal("budget-limited call succeeded")
	}
	if !strings.Contains(err.Error(), "retry budget") {
		t.Errorf("error %v does not mention the budget", err)
	}
	if !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("error %v lost the server message", err)
	}
	if got := hits.Load(); got != 3 {
		t.Errorf("attempts = %d, want 3 (first + two affordable retries)", got)
	}
	if slept != 16*time.Millisecond {
		t.Errorf("total sleep %v, want 16ms", slept)
	}
}

func TestParseRetryAfter(t *testing.T) {
	hdr := func(v string) http.Header {
		h := http.Header{}
		if v != "" {
			h.Set("Retry-After", v)
		}
		return h
	}
	futureDate := time.Now().Add(90 * time.Second).UTC().Format(http.TimeFormat)
	pastDate := time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat)
	cases := []struct {
		name     string
		value    string
		min, max time.Duration
	}{
		{"absent", "", 0, 0},
		{"zero-seconds", "0", 0, 0},
		{"integer-seconds", "7", 7 * time.Second, 7 * time.Second},
		// Negative integers fail the secs >= 0 check and then fail HTTP-date
		// parsing: treated as no hint, not a negative sleep.
		{"negative-seconds", "-3", 0, 0},
		// HTTP-date form yields roughly the remaining wall-clock delta.
		{"http-date-future", futureDate, 85 * time.Second, 91 * time.Second},
		// A date in the past means "retry now", never a negative duration.
		{"http-date-past", pastDate, 0, 0},
		{"garbage", "soon-ish", 0, 0},
		{"float-seconds", "1.5", 0, 0},
		{"huge-garbage", strings.Repeat("9", 40), 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := parseRetryAfter(hdr(tc.value))
			if got < tc.min || got > tc.max {
				t.Errorf("parseRetryAfter(%q) = %v, want in [%v, %v]", tc.value, got, tc.min, tc.max)
			}
		})
	}
}

// TestRetryExhaustedErrorFields checks the structured error both exhaustion
// paths return: callers get attempts, last HTTP status, and elapsed time as
// fields, without parsing the message.
func TestRetryExhaustedErrorFields(t *testing.T) {
	t.Run("attempts-exhausted", func(t *testing.T) {
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
		}))
		defer hs.Close()
		c, err := New(hs.URL, hs.Client(), WithRetryPolicy(RetryPolicy{
			MaxAttempts: 3,
			BaseDelay:   time.Microsecond,
			MaxDelay:    time.Microsecond,
			Sleep:       func(time.Duration) {},
		}))
		if err != nil {
			t.Fatal(err)
		}
		err = c.do(http.MethodGet, "/v1/model", nil, nil, nil)
		var re *RetryExhaustedError
		if !errors.As(err, &re) {
			t.Fatalf("error %T is not a *RetryExhaustedError", err)
		}
		if re.Attempts != 3 || re.LastStatus != http.StatusServiceUnavailable || re.BudgetExhausted {
			t.Errorf("fields %+v, want Attempts=3 LastStatus=503 BudgetExhausted=false", re)
		}
		if re.Method != http.MethodGet || re.Path != "/v1/model" {
			t.Errorf("call identity %s %s", re.Method, re.Path)
		}
		if re.Elapsed <= 0 {
			t.Errorf("Elapsed = %v", re.Elapsed)
		}
		// Unwrap reaches the last attempt's statusError.
		if StatusCode(err) != http.StatusServiceUnavailable {
			t.Errorf("StatusCode through wrap = %d", StatusCode(err))
		}
	})
	t.Run("budget-exhausted", func(t *testing.T) {
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, `{"error":"kaboom"}`, http.StatusInternalServerError)
		}))
		defer hs.Close()
		c, err := New(hs.URL, hs.Client(), WithRetryPolicy(RetryPolicy{
			MaxAttempts: 10,
			BaseDelay:   16 * time.Millisecond,
			MaxDelay:    16 * time.Millisecond,
			Budget:      20 * time.Millisecond,
			Rand:        func() float64 { return 0.5 },
			Sleep:       func(time.Duration) {},
		}))
		if err != nil {
			t.Fatal(err)
		}
		err = c.do(http.MethodGet, "/v1/model", nil, nil, nil)
		var re *RetryExhaustedError
		if !errors.As(err, &re) {
			t.Fatalf("error %T is not a *RetryExhaustedError", err)
		}
		if !re.BudgetExhausted || re.Budget != 20*time.Millisecond {
			t.Errorf("budget fields %+v", re)
		}
		if re.Attempts != 3 || re.LastStatus != http.StatusInternalServerError {
			t.Errorf("fields %+v, want Attempts=3 LastStatus=500", re)
		}
	})
	t.Run("transport-level", func(t *testing.T) {
		// A listener that is immediately closed: connection refused on every
		// attempt, so LastStatus stays 0 — the fleet failover signal.
		hs := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
		url := hs.URL
		hs.Close()
		c, err := New(url, nil, WithRetryPolicy(RetryPolicy{
			MaxAttempts: 2,
			BaseDelay:   time.Microsecond,
			MaxDelay:    time.Microsecond,
			Sleep:       func(time.Duration) {},
		}))
		if err != nil {
			t.Fatal(err)
		}
		err = c.do(http.MethodGet, "/v1/model", nil, nil, nil)
		var re *RetryExhaustedError
		if !errors.As(err, &re) {
			t.Fatalf("error %T is not a *RetryExhaustedError", err)
		}
		if re.LastStatus != 0 || re.Attempts != 2 {
			t.Errorf("fields %+v, want LastStatus=0 Attempts=2", re)
		}
		if !transportExhausted(err) {
			t.Error("transportExhausted = false for a refused connection")
		}
	})
}

func TestMaxAttemptsExhaustion(t *testing.T) {
	var hits atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
	}))
	defer hs.Close()
	c, err := New(hs.URL, hs.Client(), WithRetryPolicy(RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   time.Microsecond,
		MaxDelay:    time.Microsecond,
		Sleep:       func(time.Duration) {},
	}))
	if err != nil {
		t.Fatal(err)
	}
	err = c.do(http.MethodGet, "/v1/model", nil, nil, nil)
	if err == nil {
		t.Fatal("always-503 call succeeded")
	}
	if !strings.Contains(err.Error(), "4 attempts") {
		t.Errorf("error %v does not report attempts", err)
	}
	if got := hits.Load(); got != 4 {
		t.Errorf("attempts = %d, want 4", got)
	}
	if StatusCode(err) != http.StatusServiceUnavailable {
		t.Errorf("StatusCode(err) = %d", StatusCode(err))
	}
}
