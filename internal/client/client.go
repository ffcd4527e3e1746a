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
// episode.
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

// Healthy probes /healthz with a single attempt: no retries, metrics or
// spans, but the per-attempt timeout applies and an error carries the
// server's message.
func (c *Client) Healthy() error {
	return c.doOnce(http.MethodGet, "/healthz", nil, nil, nil)
}

// Model fetches the model summary.
func (c *Client) Model() (server.ModelResponse, error) {
	var out server.ModelResponse
	err := c.do(http.MethodGet, "/v1/model", nil, nil, &out)
	return out, err
}

// StartEpisode returns the driver of a new recovery episode, which its first
// exchange opens on the server (see StartEpisodeKeyed). The episode carries
// a fresh client-generated idempotency key, so a retried start that raced a
// lost response resumes the already-created episode instead of leaking a
// duplicate.
func (c *Client) StartEpisode() (*Episode, error) {
	key, err := newClientKey()
	if err != nil {
		return nil, err
	}
	return c.StartEpisodeKeyed(key)
}

// StartEpisodeKeyed returns the driver of an episode under a caller-chosen
// idempotency key. In a fleet the key doubles as the episode's routing key;
// restarting the same key on any member converges on the one episode (dedupe
// on the owner, redirect elsewhere, adoption after a handoff). An empty key
// is refused: the server dedupes only non-empty keys, so a retried keyless
// start could open a second episode.
//
// Nothing is sent yet. The episode's first exchange opens it: a first
// Observe sends the start and the observation in one request (a fused
// start), answered with the episode id and the next decision; a first
// Decide, ObserveNamed, Belief, Abandon or ID sends a plain start before its
// own request. The start's errors — a 429 at the episode cap, retry
// exhaustion — surface from that first call.
func (c *Client) StartEpisodeKeyed(key string) (*Episode, error) {
	if key == "" {
		return nil, fmt.Errorf("client: empty episode key")
	}
	return &Episode{c: c, key: key, hdr: episodeKeyHeader(key), open: true, pending: true}, nil
}

// Resume attaches to an episode already open on the server — typically one
// that survived a daemon restart via checkpointing — synchronizing the
// client's observation step counter with the server's.
func (c *Client) Resume(id uint64) (*Episode, error) {
	var st server.StatusResponse
	if err := c.do(http.MethodGet, fmt.Sprintf("/v1/episodes/%d", id), nil, nil, &st); err != nil {
		return nil, err
	}
	return &Episode{c: c, id: id, steps: st.Steps, open: st.Open}, nil
}

// episodeKeyHeader builds the routing-key header sent with episode-scoped
// requests so fleet members can redirect or adopt instead of 404ing. The key
// doubles as the episode's distributed trace id, so the same header set
// carries X-Bpomdp-Trace — a span-enabled server then traces the episode
// whether or not this client records its own spans.
func episodeKeyHeader(key string) http.Header {
	return http.Header{
		server.HeaderEpisodeKey: []string{key},
		server.HeaderTrace:      []string{key},
	}
}

// newClientKey returns a 128-bit random idempotency key.
func newClientKey() (string, error) {
	var b [16]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		return "", fmt.Errorf("client: generate an episode key: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// Episode drives one remote recovery episode. It implements
// controller.Controller; Reset is a no-op (the server resets the episode's
// controller when the episode is created). An episode started through a
// FleetClient also fails over: when its owner stops answering, it re-binds
// in place to whoever now owns its key and continues.
type Episode struct {
	c     *Client
	id    uint64
	key   string      // clientKey = fleet routing key; "" for keyless episodes
	hdr   http.Header // episode-key header sent with every request, nil if keyless
	steps int
	open  bool
	// pending marks an episode from StartEpisodeKeyed that its first
	// exchange has not opened on the server yet; id is 0 until then.
	pending bool
	// next is the decision the last observation's answer carried, consumed
	// by the following Decide; nil when there is none to use.
	next *server.DecisionResponse

	// fc and owner are set for an episode started by a FleetClient: the
	// fleet it fails over in and the member currently serving it.
	fc    *FleetClient
	owner string
}

var _ controller.Controller = (*Episode)(nil)

// ID returns the server-assigned episode id (in a fleet, stable across
// failovers while the episode's checkpoints survive). On an episode no
// exchange has opened yet it sends the start first, and returns 0 if the
// start fails.
func (e *Episode) ID() uint64 {
	_ = e.start()
	return e.id
}

// Key returns the episode's idempotency/routing key ("" when started
// without one).
func (e *Episode) Key() string { return e.key }

// Owner returns the fleet member currently serving the episode ("" outside
// a fleet).
func (e *Episode) Owner() string { return e.owner }

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

// start opens a pending episode with a plain start; on an open one it does
// nothing.
func (e *Episode) start() error {
	if !e.pending {
		return nil
	}
	return e.sendStart(server.StartRequest{ClientKey: e.key})
}

// sendStart sends req, a start of this pending episode, binds the episode
// to the answer's id and keeps the answer's decision for the next Decide:
// a fused start's answer carries one, a plain start's none.
func (e *Episode) sendStart(req server.StartRequest) error {
	var out server.StartResponse
	if err := e.c.do(http.MethodPost, "/v1/episodes", e.hdr, &req, &out); err != nil {
		return err
	}
	e.id, e.pending, e.next = out.EpisodeID, false, out.Decision
	return nil
}

// path returns the episode's resource path with suffix appended; it reads
// the id at call time, so a call retried after a failover uses the new one.
func (e *Episode) path(suffix string) string {
	return fmt.Sprintf("/v1/episodes/%d%s", e.id, suffix)
}

// Decide implements controller.Controller. After an observation it returns
// the decision that came back with it, with no round trip; otherwise (the
// first step after a plain start, after Resume, a second Decide on one step)
// it fetches the decision with GET. The server caches the decision for the
// current step, so a retried call — also one retried across a fleet handoff
// — returns the identical decision.
func (e *Episode) Decide() (controller.Decision, error) {
	var out server.DecisionResponse
	if err := e.start(); err != nil {
		return controller.Decision{}, err
	}
	if e.next != nil {
		out, e.next = *e.next, nil
	} else if err := e.withFailover(func() error {
		return e.c.do(http.MethodGet, e.path("/decision"), e.hdr, nil, &out)
	}); err != nil {
		return controller.Decision{}, err
	}
	if out.Terminate {
		e.open = false
	}
	return controller.Decision{Action: out.Action, Terminate: out.Terminate, Value: out.Value}, nil
}

// Observe implements controller.Controller. The server answers an
// observation with the next decision, which the following Decide returns: a
// served step is one round trip. On an episode no exchange has opened yet
// the observation opens it: one fused start carries it as step 0.
func (e *Episode) Observe(action, obs int) error {
	if e.pending {
		if err := e.sendStart(server.StartRequest{ClientKey: e.key, First: &server.Step{Action: action, Observation: obs}}); err != nil {
			return err
		}
		e.steps++
		return nil
	}
	return e.observe(server.ObservationRequest{Action: action, Observation: obs})
}

// ObserveNamed reports an observation by name; like Observe, its answer
// carries the decision the following Decide returns.
func (e *Episode) ObserveNamed(action, obs string) error {
	if err := e.start(); err != nil {
		return err
	}
	return e.observe(server.ObservationRequest{ActionName: action, ObservationName: obs})
}

// observe posts req as the episode's next step and keeps the answer's
// decision for the next Decide. The request carries the client's step index
// as a dedupe key, so a retransmit after a lost response — also one sent to
// a new owner after a failover — is acknowledged without being applied
// twice, and gets the same decision, including the terminal one of an
// episode that ended while the first answer was lost.
func (e *Episode) observe(req server.ObservationRequest) error {
	step := e.steps
	req.StepIndex = &step
	next := new(server.DecisionResponse)
	if err := e.withFailover(func() error {
		return e.c.do(http.MethodPost, e.path("/observations"), e.hdr, &req, next)
	}); err != nil {
		return err
	}
	e.steps++
	e.next = next
	return nil
}

// Belief implements controller.Controller by fetching the remote belief;
// nil when it cannot be fetched.
func (e *Episode) Belief() pomdp.Belief {
	var out server.BeliefResponse
	if err := e.start(); err != nil {
		return nil
	}
	if err := e.withFailover(func() error {
		return e.c.do(http.MethodGet, e.path("/belief"), e.hdr, nil, &out)
	}); err != nil {
		return nil
	}
	return pomdp.Belief(out.Belief)
}

// Abandon deletes the episode on the server, wherever it currently lives.
func (e *Episode) Abandon() error {
	// A pending episode is started first: a fused start that failed may
	// still have opened it on the server, and the start's dedupe finds it.
	err := e.start()
	e.open, e.next = false, nil
	if err != nil {
		return err
	}
	return e.withFailover(func() error {
		return e.c.do(http.MethodDelete, e.path(""), e.hdr, nil, nil)
	})
}

// do performs one JSON request/response exchange under the retry policy;
// it is the client's only retry loop. hdr, when non-nil, supplies extra
// request headers (e.g. the fleet episode key). A traced call (WithSpans
// applied and an episode key on the request) emits a client.attempt span
// per attempt, a client.backoff span per sleep and one client.call span
// over the whole loop; a metered call (WithMetrics) updates the
// recoverd_client_* series. Exhaustion — attempts or budget — returns a
// *RetryExhaustedError wrapping the last failure.
func (c *Client) do(method, path string, hdr http.Header, in, out any) error {
	var payload []byte
	if in != nil {
		data, err := server.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encode %s %s: %w", method, path, err)
		}
		payload = data
	}
	trace, op := c.traceID(hdr), ""
	if trace != "" {
		op = callOp(method, path)
	}

	var (
		err         error
		slept, hint time.Duration // hint: the last failure's Retry-After
		started     = time.Now()
	)
	for attempt := 0; ; attempt++ {
		if attempt >= c.policy.MaxAttempts {
			err = &RetryExhaustedError{
				Method: method, Path: path,
				Attempts:   attempt,
				LastStatus: StatusCode(err),
				Elapsed:    time.Since(started),
				Err:        err,
			}
			break
		}
		if attempt > 0 {
			delay := max(c.policy.backoff(attempt-1), hint)
			if slept+delay > c.policy.Budget {
				err = &RetryExhaustedError{
					Method: method, Path: path,
					Attempts:        attempt,
					LastStatus:      StatusCode(err),
					Elapsed:         time.Since(started),
					BudgetExhausted: true,
					Budget:          c.policy.Budget,
					Err:             err,
				}
				break
			}
			slept += delay
			t0 := time.Now()
			c.policy.Sleep(delay)
			c.span(trace, obs.SpanClientBackoff, op, attempt, t0, nil)
			if c.metrics != nil {
				c.metrics.retries.Inc()
			}
		}

		if c.metrics != nil {
			c.metrics.requests.Inc()
		}
		t0 := time.Now()
		err = c.doOnce(method, path, hdr, payload, out)
		if c.metrics != nil {
			c.metrics.latency.Observe(time.Since(t0).Seconds())
			if err != nil {
				c.metrics.errors.Inc()
			}
		}
		c.span(trace, obs.SpanClientAttempt, op, attempt, t0, err)
		if err == nil || !retryable(err) {
			break
		}
		hint = 0
		var se *statusError
		if errors.As(err, &se) {
			hint = se.retryAfter
		}
	}
	c.span(trace, obs.SpanClientCall, op, 0, started, err)
	return err
}

// doOnce performs a single attempt under the per-attempt timeout. Every path — success, HTTP error,
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
	if out != nil {
		if err := readBody(resp.Body, out); err != nil {
			return fmt.Errorf("client: decode %s %s: %w", method, path, err)
		}
	}
	return nil
}

// readBody decodes a response body into out; a batch round's scratch
// decodes it into its own reused memory.
func readBody(r io.Reader, out any) error {
	if sc, ok := out.(*batchScratch); ok {
		return sc.readBody(r)
	}
	return server.ReadJSON(r, out)
}

func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, body)
	_ = body.Close()
}
