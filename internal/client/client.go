// Package client is the typed HTTP client for the recovery service
// (internal/server). Its Episode type implements controller.Controller, so
// anything that can drive a local controller — including the
// fault-injection simulator — can drive a remote recovery daemon
// unchanged.
//
// The client is built for lossy networks: every call runs under a
// RetryPolicy (capped exponential backoff with full jitter, a per-call
// retry budget, and a per-attempt timeout), and every request the client
// issues is idempotent on the wire — episode starts carry a
// client-generated clientKey and observation POSTs carry a stepIndex, both
// of which the server deduplicates — so a retried request never corrupts an
// episode. Requests without a dedupe key are retried only when the
// connection could not be established at all.
package client

import (
	"bytes"
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"bpomdp/internal/controller"
	"bpomdp/internal/obs"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/server"
)

// maxErrorBody caps how much of an error response body is read when
// surfacing the server's message.
const maxErrorBody = 64 << 10

// Option customizes a Client.
type Option func(*Client)

// WithRetryPolicy replaces the default retry policy.
func WithRetryPolicy(p RetryPolicy) Option {
	return func(c *Client) { c.policy = p.withDefaults() }
}

// Client talks to one recovery service. It is safe for concurrent use as
// long as the underlying http.Client is.
type Client struct {
	base    string
	http    *http.Client
	policy  RetryPolicy
	metrics *clientMetrics // nil unless WithMetrics was applied

	// spans/spanNode are set by WithSpans; nil spans means untraced.
	spans    *obs.SpanWriter
	spanNode string
}

// New returns a client for the service at baseURL (e.g.
// "http://127.0.0.1:7947"). httpClient nil means http.DefaultClient.
func New(baseURL string, httpClient *http.Client, opts ...Option) (*Client, error) {
	if baseURL == "" {
		return nil, fmt.Errorf("client: empty base URL")
	}
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	c := &Client{
		base:   strings.TrimRight(baseURL, "/"),
		http:   httpClient,
		policy: DefaultRetryPolicy(),
	}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// Healthy probes /healthz.
func (c *Client) Healthy() error {
	req, err := http.NewRequest(http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return fmt.Errorf("client: healthz: %w", err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("client: healthz: %w", err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("client: healthz status %d", resp.StatusCode)
	}
	return nil
}

// Model fetches the model summary.
func (c *Client) Model() (server.ModelResponse, error) {
	var out server.ModelResponse
	err := c.do(http.MethodGet, "/v1/model", nil, nil, &out, idemSafe)
	return out, err
}

// StartEpisode opens a recovery episode and returns its driver. The request
// carries a fresh client-generated idempotency key, so a retried start that
// raced a lost response resumes the already-created episode instead of
// leaking a duplicate.
func (c *Client) StartEpisode() (*Episode, error) {
	return c.StartEpisodeKeyed(newClientKey())
}

// StartEpisodeKeyed opens an episode under a caller-chosen idempotency key.
// In a fleet the key doubles as the episode's routing key; restarting the
// same key on any member converges on the one episode (dedupe on the owner,
// redirect elsewhere, adoption after a handoff).
func (c *Client) StartEpisodeKeyed(key string) (*Episode, error) {
	req := server.StartRequest{ClientKey: key}
	var out server.StartResponse
	if err := c.do(http.MethodPost, "/v1/episodes", episodeKeyHeader(key), &req, &out, idemSafe); err != nil {
		return nil, err
	}
	return &Episode{c: c, id: out.EpisodeID, key: key, hdr: episodeKeyHeader(key), open: true}, nil
}

// Resume attaches to an episode already open on the server — typically one
// that survived a daemon restart via checkpointing — synchronizing the
// client's observation step counter with the server's.
func (c *Client) Resume(id uint64) (*Episode, error) {
	var st server.StatusResponse
	if err := c.do(http.MethodGet, fmt.Sprintf("/v1/episodes/%d", id), nil, nil, &st, idemSafe); err != nil {
		return nil, err
	}
	return &Episode{c: c, id: id, steps: st.Steps, open: st.Open}, nil
}

// episodeKeyHeader builds the routing-key header sent with episode-scoped
// requests so fleet members can redirect or adopt instead of 404ing. The key
// doubles as the episode's distributed trace id, so the same header set
// carries X-Bpomdp-Trace — a span-enabled server then traces the episode
// whether or not this client records its own spans. Nil for keyless
// episodes.
func episodeKeyHeader(key string) http.Header {
	if key == "" {
		return nil
	}
	return http.Header{
		server.HeaderEpisodeKey: []string{key},
		server.HeaderTrace:      []string{key},
	}
}

// newClientKey returns a 128-bit random idempotency key.
func newClientKey() string {
	var b [16]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; an empty key just
		// downgrades the start to non-idempotent.
		return ""
	}
	return hex.EncodeToString(b[:])
}

// Episode drives one remote recovery episode. It implements
// controller.Controller; Reset is a no-op (the server resets the episode's
// controller when the episode is created).
type Episode struct {
	c     *Client
	id    uint64
	key   string      // clientKey = fleet routing key; "" for keyless episodes
	hdr   http.Header // episode-key header sent with every request, nil if keyless
	steps int
	open  bool
	// next is the decision the last Observe's answer carried, consumed by
	// the following Decide; nil when there is none to use.
	next *server.DecisionResponse
}

var _ controller.Controller = (*Episode)(nil)

// ID returns the server-assigned episode id.
func (e *Episode) ID() uint64 { return e.id }

// Key returns the episode's idempotency/routing key ("" when started
// without one).
func (e *Episode) Key() string { return e.key }

// Steps returns the number of observations the client knows were applied.
func (e *Episode) Steps() int { return e.steps }

// Name implements controller.Controller.
func (e *Episode) Name() string { return fmt.Sprintf("remote-episode-%d", e.id) }

// Reset implements controller.Controller; the remote controller was reset
// at episode creation, so a same-episode Reset is a no-op and re-use after
// termination is an error.
func (e *Episode) Reset(pomdp.Belief) error {
	if !e.open {
		return fmt.Errorf("client: episode %d is closed; start a new one", e.id)
	}
	return nil
}

// Decide implements controller.Controller. After Observe it returns the
// decision that came back with the observation, with no round trip;
// otherwise (first step, ObserveNamed, Resume, a server that answered the
// observation with 204) it fetches the decision with GET. The server caches
// the decision for the current step, so a retried call returns the
// identical decision.
func (e *Episode) Decide() (controller.Decision, error) {
	var out server.DecisionResponse
	if e.next != nil {
		out, e.next = *e.next, nil
	} else if err := e.c.do(http.MethodGet, fmt.Sprintf("/v1/episodes/%d/decision", e.id), e.hdr, nil, &out, idemSafe); err != nil {
		return controller.Decision{}, err
	}
	if out.Terminate {
		e.open = false
	}
	return controller.Decision{Action: out.Action, Terminate: out.Terminate, Value: out.Value}, nil
}

// Observe implements controller.Controller. The request carries the
// client's step index as a dedupe key, so a retransmit after a lost
// response is acknowledged without being applied twice. It also asks for
// the next decision, which the following Decide returns: a served step is
// one round trip. A retransmit gets the same decision, including the
// terminal one of an episode that ended while the first answer was lost.
func (e *Episode) Observe(action, obs int) error {
	step := e.steps
	req := server.ObservationRequest{Action: action, Observation: obs, StepIndex: &step, Decide: true}
	var next *server.DecisionResponse // stays nil on a 204 from a server without decide
	if err := e.c.do(http.MethodPost, fmt.Sprintf("/v1/episodes/%d/observations", e.id), e.hdr, &req, &next, idemSafe); err != nil {
		return err
	}
	e.steps++
	e.next = next
	return nil
}

// ObserveNamed reports an observation by name. It does not ask for the next
// decision; the following Decide fetches it.
func (e *Episode) ObserveNamed(action, obs string) error {
	step := e.steps
	req := server.ObservationRequest{ActionName: action, ObservationName: obs, StepIndex: &step}
	if err := e.c.do(http.MethodPost, fmt.Sprintf("/v1/episodes/%d/observations", e.id), e.hdr, &req, nil, idemSafe); err != nil {
		return err
	}
	e.steps++
	e.next = nil
	return nil
}

// Belief implements controller.Controller by fetching the remote belief.
func (e *Episode) Belief() pomdp.Belief {
	var out server.BeliefResponse
	if err := e.c.do(http.MethodGet, fmt.Sprintf("/v1/episodes/%d/belief", e.id), e.hdr, nil, &out, idemSafe); err != nil {
		return nil
	}
	return pomdp.Belief(out.Belief)
}

// Abandon deletes the episode on the server.
func (e *Episode) Abandon() error {
	e.open, e.next = false, nil
	return e.c.do(http.MethodDelete, fmt.Sprintf("/v1/episodes/%d", e.id), e.hdr, nil, nil, idemSafe)
}

// do performs one JSON request/response exchange under the retry policy.
// hdr, when non-nil, supplies extra request headers (e.g. the fleet episode
// key). A traced call (WithSpans applied and an episode key on the request)
// is wrapped in a client.call span covering the whole retry loop.
// Exhaustion — attempts or budget — returns a *RetryExhaustedError wrapping
// the last failure.
func (c *Client) do(method, path string, hdr http.Header, in, out any, idem idempotency) error {
	trace := c.traceID(hdr)
	if trace == "" {
		return c.doRetry(method, path, hdr, in, out, idem, "", "")
	}
	op := callOp(method, path)
	t0 := time.Now()
	err := c.doRetry(method, path, hdr, in, out, idem, trace, op)
	rec := &obs.SpanRecord{
		TraceID: trace, Kind: obs.SpanClientCall, Op: op,
		Start: t0.UnixNano(), Duration: time.Since(t0).Nanoseconds(),
	}
	if err != nil {
		rec.Err = err.Error()
		rec.Status = StatusCode(err)
	}
	c.spanEmit(rec)
	return err
}

// doRetry is the retry loop behind do. trace is empty for untraced calls;
// when set, every attempt and backoff sleep emits its own span.
func (c *Client) doRetry(method, path string, hdr http.Header, in, out any, idem idempotency, trace, op string) error {
	var payload []byte
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encode %s %s: %w", method, path, err)
		}
		payload = data
	}

	var (
		lastErr error
		slept   time.Duration
		started = time.Now()
	)
	for attempt := 0; attempt < c.policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			delay := c.policy.backoff(attempt - 1)
			if hinted := retryDelayHint(lastErr); hinted > delay {
				delay = hinted
			}
			if slept+delay > c.policy.Budget {
				return &RetryExhaustedError{
					Method: method, Path: path,
					Attempts:        attempt,
					LastStatus:      StatusCode(lastErr),
					Elapsed:         time.Since(started),
					BudgetExhausted: true,
					Budget:          c.policy.Budget,
					Err:             lastErr,
				}
			}
			slept += delay
			if trace != "" {
				c.spannedSleep(trace, op, attempt, delay)
			} else {
				c.policy.Sleep(delay)
			}
			if c.metrics != nil {
				c.metrics.retries.Inc()
			}
		}
		var err error
		if trace != "" {
			err = c.spannedAttempt(trace, op, attempt, method, path, hdr, payload, out)
		} else {
			err = c.attempt(method, path, hdr, payload, out)
		}
		if err == nil {
			return nil
		}
		lastErr = err
		if ok, _ := retryable(err, idem); !ok {
			return err
		}
	}
	return &RetryExhaustedError{
		Method: method, Path: path,
		Attempts:   c.policy.MaxAttempts,
		LastStatus: StatusCode(lastErr),
		Elapsed:    time.Since(started),
		Err:        lastErr,
	}
}

// retryDelayHint extracts a server-mandated delay (Retry-After) from err.
func retryDelayHint(err error) time.Duration {
	var se *statusError
	if errors.As(err, &se) {
		return se.retryAfter
	}
	return 0
}

// doOnce performs a single attempt. Every path — success, HTTP error,
// decode failure — drains and closes the response body so the underlying
// connection is reusable and never leaks.
func (c *Client) doOnce(method, path string, hdr http.Header, payload []byte, out any) error {
	ctx, cancel := context.WithTimeout(context.Background(), c.policy.PerTryTimeout)
	defer cancel()
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode >= 400 {
		se := &statusError{
			method:     method,
			path:       path,
			code:       resp.StatusCode,
			retryAfter: parseRetryAfter(resp.Header),
		}
		// Surface the server's JSON error message; fall back to the raw
		// body when it is not the uniform error shape. Either way the body
		// is fully read here and drained+closed by the deferred call.
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
		var apiErr server.ErrorResponse
		if jerr := json.Unmarshal(raw, &apiErr); jerr == nil && apiErr.Error != "" {
			se.message = apiErr.Error
		} else if msg := strings.TrimSpace(string(raw)); msg != "" {
			se.message = msg
		}
		return se
	}
	if out != nil && resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("client: decode %s %s: %w", method, path, err)
		}
	}
	return nil
}

func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, body)
	_ = body.Close()
}
