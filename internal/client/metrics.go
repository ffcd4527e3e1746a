package client

import "bpomdp/internal/obs"

// clientMetrics holds the client-side instruments, updated by the retry
// loop in do. A Client without WithMetrics carries a nil *clientMetrics and
// pays only nil checks.
type clientMetrics struct {
	requests *obs.Counter
	retries  *obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
}

// WithMetrics instruments the client on reg: per-attempt request and error
// counters, a retry counter, and a per-attempt latency histogram.
// Registration is idempotent, so several clients may share one registry (and
// a registry shared with a server, since the client series carry the
// recoverd_client_ prefix). A nil registry leaves the client uninstrumented.
func WithMetrics(reg *obs.Registry) Option {
	return func(c *Client) {
		if reg == nil {
			return
		}
		c.metrics = &clientMetrics{
			requests: reg.Counter("recoverd_client_requests_total", "HTTP attempts issued (retries counted individually)."),
			retries:  reg.Counter("recoverd_client_retries_total", "Attempts beyond the first within one call."),
			errors:   reg.Counter("recoverd_client_errors_total", "Attempts that ended in a transport or HTTP error."),
			latency: reg.Histogram("recoverd_client_request_duration_seconds",
				"Per-attempt request latency in seconds.", obs.DefLatencyBuckets),
		}
	}
}
