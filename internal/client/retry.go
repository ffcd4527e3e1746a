package client

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"
)

// DefaultRetryBudget is the default cumulative-backoff budget per call. It
// is exported because the server derives a safety floor from it: a terminal
// tombstone must out-live the longest a client could still be retrying its
// final GET, so recoverd refuses tombstone TTLs below the configured client
// retry budget (see the -tombstone-ttl / -client-retry-budget flags).
const DefaultRetryBudget = 15 * time.Second

// RetryPolicy configures the client's retry loop: capped exponential
// backoff with full jitter, a per-call retry budget, and a per-attempt
// timeout. The zero value means defaults.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per call, including the
	// first (0 means 8; 1 disables retries).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (0 means 25ms).
	BaseDelay time.Duration
	// MaxDelay caps a single backoff sleep (0 means 1s).
	MaxDelay time.Duration
	// Budget caps the cumulative backoff sleep per call; once spent, the
	// last error is returned even if attempts remain (0 means 15s).
	Budget time.Duration
	// PerTryTimeout bounds each attempt via context.Context (0 means 10s).
	PerTryTimeout time.Duration

	// Rand returns a uniform value in [0,1) for jitter; nil means
	// math/rand/v2. Injectable for deterministic tests.
	Rand func() float64
	// Sleep replaces time.Sleep in tests.
	Sleep func(time.Duration)
}

// DefaultRetryPolicy is the policy used when none is configured.
func DefaultRetryPolicy() RetryPolicy { return RetryPolicy{}.withDefaults() }

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 8
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = 25 * time.Millisecond
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = time.Second
	}
	if p.Budget == 0 {
		p.Budget = DefaultRetryBudget
	}
	if p.PerTryTimeout == 0 {
		p.PerTryTimeout = 10 * time.Second
	}
	if p.Rand == nil {
		p.Rand = rand.Float64
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// backoff returns the sleep before retry number attempt (attempt 0 is the
// first retry): a uniform draw from [0, min(MaxDelay, BaseDelay·2^attempt)),
// i.e. capped exponential backoff with full jitter.
func (p RetryPolicy) backoff(attempt int) time.Duration {
	ceil := p.MaxDelay
	// BaseDelay << attempt, saturating instead of overflowing.
	if attempt < 62 {
		if d := p.BaseDelay << uint(attempt); d < ceil && d > 0 {
			ceil = d
		}
	}
	if ceil <= 0 {
		return 0
	}
	return time.Duration(p.Rand() * float64(ceil))
}

// statusError is an HTTP-level failure, preserving the code for retry
// classification and any Retry-After hint the server sent.
type statusError struct {
	method, path string
	code         int
	message      string
	retryAfter   time.Duration
}

func (e *statusError) Error() string {
	if e.message != "" {
		return fmt.Sprintf("client: %s %s: status %d: %s", e.method, e.path, e.code, e.message)
	}
	return fmt.Sprintf("client: %s %s: status %d", e.method, e.path, e.code)
}

// RetryExhaustedError reports a call that ran out of retries: every attempt
// failed, or the cumulative backoff budget was spent first. It carries the
// retry loop's full story — attempts made, the HTTP status behind the last
// failure (0 for transport-level errors such as a refused connection), and
// wall-clock time burned — so callers can distinguish "the server keeps
// saying no" from "nobody is answering" without parsing error strings. It
// unwraps to the last attempt's error.
type RetryExhaustedError struct {
	// Method and Path identify the call.
	Method, Path string
	// Attempts is how many attempts were made before giving up.
	Attempts int
	// LastStatus is the HTTP status of the last failure, 0 when the failure
	// never produced a response (dial refused, timeout, reset).
	LastStatus int
	// Elapsed is wall-clock time from the first attempt to giving up.
	Elapsed time.Duration
	// BudgetExhausted is true when the backoff budget ran out with attempts
	// to spare; Budget is the configured cap in that case.
	BudgetExhausted bool
	Budget          time.Duration
	// Err is the last attempt's error.
	Err error
}

func (e *RetryExhaustedError) Error() string {
	if e.BudgetExhausted {
		return fmt.Sprintf("client: retry budget %v exhausted after %d attempts: %v", e.Budget, e.Attempts, e.Err)
	}
	return fmt.Sprintf("client: %d attempts failed: %v", e.Attempts, e.Err)
}

func (e *RetryExhaustedError) Unwrap() error { return e.Err }

// StatusCode extracts the HTTP status behind err, or 0 for transport-level
// failures.
func StatusCode(err error) int {
	var se *statusError
	if errors.As(err, &se) {
		return se.code
	}
	return 0
}

// retryable reports whether err warrants another attempt. Every request the
// client sends carries a dedupe key the server honours (clientKey on starts,
// stepIndex on observations) or is idempotent by nature (reads, deletes,
// the stateless batch decide, marking a member down), so one rule serves
// them all: 429 and 5xx retry, other HTTP errors do not, and transport
// errors (timeout, reset, refused) do.
func retryable(err error) bool {
	var se *statusError
	if errors.As(err, &se) {
		return se.code == http.StatusTooManyRequests || se.code >= 500
	}
	return err != nil
}

func parseRetryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}
