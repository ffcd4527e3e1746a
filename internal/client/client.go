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
//
// Each attempt goes straight to the http.Client's Transport: the client
// follows the fleet's 307 and 308 redirects itself, as http.Client's default
// policy would, and the per-attempt timeout comes from the RetryPolicy. So
// the http.Client fields that act only inside http.Client.Do — Timeout, Jar
// and CheckRedirect — are refused rather than silently ignored. The request
// headers are built once per episode and shared, read-only, by every request
// it sends, which the RoundTripper contract allows: a RoundTripper must not
// modify the request, so one that adds a header clones the request first.
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
	"net/url"
	"strconv"
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
// long as the underlying Transport is.
type Client struct {
	base    string
	rt      http.RoundTripper
	policy  RetryPolicy
	metrics *clientMetrics // nil unless WithMetrics was applied

	// spans/spanNode are set by WithSpans; nil spans means untraced.
	spans    *obs.SpanWriter
	spanNode string
}

// New returns a client for the service at baseURL (e.g.
// "http://127.0.0.1:7947"). It sends through httpClient's Transport alone
// (http.DefaultTransport when either is nil) and refuses what that would
// ignore: an httpClient that sets Timeout, Jar or CheckRedirect (the
// RetryPolicy's PerTryTimeout bounds each attempt) and a base URL with user
// info, which http.Client sent as basic auth. The Transport must not
// modify requests, whose header maps are shared (see the package doc).
func New(baseURL string, httpClient *http.Client, opts ...Option) (*Client, error) {
	if baseURL == "" {
		return nil, fmt.Errorf("client: empty base URL")
	}
	if u, err := url.Parse(baseURL); err != nil {
		return nil, fmt.Errorf("client: base URL: %w", err)
	} else if u.User != nil {
		return nil, fmt.Errorf("client: base URL %s carries user info, which the client does not send", u.Redacted())
	}
	rt, err := transportOf(httpClient)
	if err != nil {
		return nil, err
	}
	c := &Client{
		base:   strings.TrimRight(baseURL, "/"),
		rt:     rt,
		policy: DefaultRetryPolicy(),
	}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// transportOf returns the RoundTripper a client built over hc sends
// through, refusing the http.Client fields it would ignore.
func transportOf(hc *http.Client) (http.RoundTripper, error) {
	if hc == nil {
		return http.DefaultTransport, nil
	}
	switch {
	case hc.Timeout != 0:
		return nil, fmt.Errorf("client: http.Client.Timeout is not supported; set RetryPolicy.PerTryTimeout")
	case hc.Jar != nil:
		return nil, fmt.Errorf("client: http.Client.Jar is not supported")
	case hc.CheckRedirect != nil:
		return nil, fmt.Errorf("client: http.Client.CheckRedirect is not supported; 307 and 308 redirects are followed up to %d hops", maxRedirects)
	}
	if hc.Transport == nil {
		return http.DefaultTransport, nil
	}
	return hc.Transport, nil
}

// Healthy probes /healthz with a single attempt: no retries, metrics or
// spans, but the per-attempt timeout applies and an error carries the
// server's message.
func (c *Client) Healthy() error {
	return c.doOnce(http.MethodGet, "/healthz", keyless.plain, nil, nil)
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
	return &Episode{c: c, key: key, hdr: episodeHeaders(key), open: true, pending: true}, nil
}

// Resume attaches to an episode already open on the server — typically one
// that survived a daemon restart via checkpointing — synchronizing the
// client's observation step counter with the server's.
func (c *Client) Resume(id uint64) (*Episode, error) {
	var st server.StatusResponse
	e := &Episode{c: c}
	e.bind(id)
	if err := c.do(http.MethodGet, e.res, nil, nil, &st); err != nil {
		return nil, err
	}
	e.steps, e.open = st.Steps, st.Open
	return e, nil
}

// jsonType is the Content-Type of every request body, shared read-only by
// the header maps below.
var jsonType = []string{"application/json"}

// headers are the read-only header maps one caller's requests carry: plain
// on a request without a body, json (plain plus Content-Type) on one with a
// body. trace is the episode trace id they carry, "" when keyless.
type headers struct {
	plain, json http.Header
	trace       string
}

// keyless is the header set of every call outside an episode: health,
// model, resume, batch decide and fleet admin. do reads a nil set as it.
var keyless = &headers{plain: http.Header{}, json: http.Header{"Content-Type": jsonType}}

// episodeHeaders builds the header set of the episode keyed key. The
// routing-key header lets fleet members redirect or adopt instead of 404ing.
// The key doubles as the episode's distributed trace id, so the same set
// carries X-Bpomdp-Trace: a span-enabled server then traces the episode
// whether or not this client records its own spans.
func episodeHeaders(key string) *headers {
	v := []string{key}
	return &headers{
		plain: http.Header{server.HeaderEpisodeKey: v, server.HeaderTrace: v},
		json:  http.Header{server.HeaderEpisodeKey: v, server.HeaderTrace: v, "Content-Type": jsonType},
		trace: key,
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
	c   *Client
	id  uint64
	key string   // clientKey = fleet routing key; "" for keyless episodes
	hdr *headers // built once, sent with every request; nil if keyless
	// res and obsPath are the episode's resource and observations paths,
	// built by bind; "" until then.
	res, obsPath string
	steps        int
	open         bool
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
	e.bind(out.EpisodeID)
	e.pending, e.next = false, out.Decision
	return nil
}

// bind sets the episode's id and builds the paths of its requests from it.
// Calls read the paths at call time, so a call retried after a failover's
// re-bind uses the new ones.
func (e *Episode) bind(id uint64) {
	e.id = id
	e.res = "/v1/episodes/" + strconv.FormatUint(id, 10)
	e.obsPath = e.res + "/observations"
}

// Decide implements controller.Controller. After an observation it returns
// the decision that came back with it, with no round trip; otherwise (the
// first step after a plain start, after Resume, a second Decide on one step)
// it fetches the decision with GET. The server caches the decision for the
// current step, so a retried call — also one retried across a fleet handoff
// — returns the identical decision.
func (e *Episode) Decide() (controller.Decision, error) {
	if err := e.start(); err != nil {
		return controller.Decision{}, err
	}
	out := e.next
	if out != nil {
		e.next = nil
	} else {
		out = new(server.DecisionResponse)
		if err := e.withFailover(func() error {
			return e.c.do(http.MethodGet, e.res+"/decision", e.hdr, nil, out)
		}); err != nil {
			return controller.Decision{}, err
		}
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
		return e.c.do(http.MethodPost, e.obsPath, e.hdr, &req, next)
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
		return e.c.do(http.MethodGet, e.res+"/belief", e.hdr, nil, &out)
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
		return e.c.do(http.MethodDelete, e.res, e.hdr, nil, nil)
	})
}

// do performs one JSON request/response exchange under the retry policy;
// it is the client's only retry loop. h supplies the request headers: an
// episode's key and trace id, or none when nil. A traced call (WithSpans
// applied and an episode key on the request) emits a client.attempt span
// per attempt, a client.backoff span per sleep and one client.call span
// over the whole loop; a metered call (WithMetrics) updates the
// recoverd_client_* series. Exhaustion — attempts or budget — returns a
// *RetryExhaustedError wrapping the last failure.
func (c *Client) do(method, path string, h *headers, in, out any) error {
	if h == nil {
		h = keyless
	}
	var payload []byte
	hdr := h.plain
	if in != nil {
		data, err := server.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encode %s %s: %w", method, path, err)
		}
		payload, hdr = data, h.json
	}
	trace, op := c.traceID(h), ""
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

// doOnce performs a single attempt under the per-attempt timeout, sending
// hdr as the request's headers. Every path — success, HTTP error, decode
// failure — drains and closes the response body so the underlying
// connection is reusable and never leaks.
func (c *Client) doOnce(method, path string, hdr http.Header, payload []byte, out any) error {
	ctx, cancel := context.WithTimeout(context.Background(), c.policy.PerTryTimeout)
	defer cancel()
	resp, err := c.send(ctx, method, c.base+path, hdr, payload)
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

// maxRedirects is how many redirects one attempt follows before it fails,
// as under http.Client's default redirect policy.
const maxRedirects = 10

// send sends one attempt to target through the transport and follows the
// fleet's redirects as http.Client's default policy does: a 307 or 308
// with a Location is re-sent to it, resolved against the request's URL,
// with the same method, body and headers (no Referer is added), and the
// tenth redirect fails with http.Client's error. Every other response is
// returned as it came. A transport error is a *url.Error naming the method
// and URL, as http.Client reports it.
func (c *Client) send(ctx context.Context, method, target string, hdr http.Header, payload []byte) (*http.Response, error) {
	req, err := newRequest(ctx, method, target, hdr, payload)
	if err != nil {
		return nil, err
	}
	for redirects := 1; ; redirects++ {
		resp, err := c.rt.RoundTrip(req)
		if err != nil {
			return nil, urlError(method, req.URL.String(), err)
		}
		if resp.Body == nil {
			resp.Body = http.NoBody
		}
		if resp.StatusCode != http.StatusTemporaryRedirect && resp.StatusCode != http.StatusPermanentRedirect {
			return resp, nil
		}
		loc := resp.Header.Get("Location")
		if loc == "" {
			return resp, nil
		}
		drainClose(resp.Body)
		u, err := req.URL.Parse(loc)
		if err != nil {
			return nil, urlError(method, req.URL.String(), fmt.Errorf("failed to parse Location header %q: %v", loc, err))
		}
		if redirects == maxRedirects {
			return nil, urlError(method, loc, fmt.Errorf("stopped after %d redirects", maxRedirects))
		}
		if req, err = newRequest(ctx, method, u.String(), hdr, payload); err != nil {
			return nil, urlError(method, u.String(), err)
		}
	}
}

// urlError reports err as http.Client does: a *url.Error naming the method
// ("Post") and the URL.
func urlError(method, u string, err error) error {
	return &url.Error{Op: method[:1] + strings.ToLower(method[1:]), URL: u, Err: err}
}

// newRequest builds a request carrying payload, when non-nil, as its body
// and hdr, unchanged, as its headers.
func newRequest(ctx context.Context, method, target string, hdr http.Header, payload []byte) (*http.Request, error) {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, target, body)
	if err != nil {
		return nil, err
	}
	req.Header = hdr
	return req, nil
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
