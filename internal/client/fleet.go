package client

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"time"

	"bpomdp/internal/controller"
	"bpomdp/internal/fleet"
	"bpomdp/internal/obs"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/server"
)

// FleetClient talks to a recovery fleet without a coordinator: it computes
// each episode's owner locally from the same hash ring the servers use and
// sends requests straight to the owner. Two self-healing paths cover stale
// views:
//
//   - A member that disagrees (its view is newer or the client's is stale)
//     answers 307 + X-Bpomdp-Owner, which the underlying http.Client follows
//     transparently — requests always land somewhere correct.
//   - When a member stops answering entirely (connection refused, timeouts
//     through the whole retry policy), the client marks it down in its local
//     view, re-routes the episode key to the surviving owner, and re-binds
//     the episode by restarting its key there — the server dedupes or adopts,
//     so the episode continues under its original identity.
//
// The member list and virtual-node count must match the servers' -fleet-peers
// configuration, or client and fleet will disagree about ownership and every
// request will pay a redirect.
type FleetClient struct {
	view *fleet.Membership

	mu      sync.Mutex
	clients map[string]*Client
}

// NewFleetClient builds a client over the fleet's static member list with
// vnodes virtual nodes per member (0 means fleet.DefaultVirtualNodes; must
// match the servers). httpClient nil means http.DefaultClient; opts apply to
// every per-member client.
func NewFleetClient(members []fleet.Member, vnodes int, httpClient *http.Client, opts ...Option) (*FleetClient, error) {
	view, err := fleet.NewMembership(members, vnodes)
	if err != nil {
		return nil, err
	}
	fc := &FleetClient{view: view, clients: make(map[string]*Client, len(members))}
	for _, m := range members {
		c, err := New(m.Addr, httpClient, opts...)
		if err != nil {
			return nil, fmt.Errorf("client: fleet member %q: %w", m.ID, err)
		}
		fc.clients[m.ID] = c
	}
	return fc, nil
}

// View exposes the client's membership view, e.g. for health probes to mark
// members down ahead of the first failed request.
func (fc *FleetClient) View() *fleet.Membership { return fc.view }

func (fc *FleetClient) client(id string) *Client {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.clients[id]
}

func (fc *FleetClient) memberCount() int {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return len(fc.clients)
}

// syncDown reports every member this client has marked down to the given
// member's admin endpoint, best-effort. Without it a survivor whose own view
// is stale would redirect the client straight back to the dead member; with
// it the survivor flips its view and eagerly adopts the dead member's
// episodes before the client's next request.
func (fc *FleetClient) syncDown(memberID string) {
	c := fc.client(memberID)
	if c == nil {
		return
	}
	for _, m := range fc.view.DownMembers() {
		_ = c.do(http.MethodPost, "/v1/fleet/members/"+url.PathEscape(m.ID)+"/down", nil, nil, nil, idemSafe)
	}
}

// EpisodeLostError reports a failover that could not recover the episode's
// identity: re-starting the key on the new owner produced a brand-new
// episode instead of deduping into the original (no adopted checkpoint, no
// terminal tombstone). Continuing silently would replay the episode from
// scratch under a new id — mid-recovery progress gone without a trace — so
// the client surfaces it instead. The fresh episode is abandoned before the
// error is returned.
type EpisodeLostError struct {
	// Key is the episode's routing key.
	Key string
	// EpisodeID is the lost episode's id; FreshID is the new id the fleet
	// answered with (already abandoned).
	EpisodeID, FreshID uint64
	// Steps is the client-side progress that could not be recovered.
	Steps int
}

func (e *EpisodeLostError) Error() string {
	return fmt.Sprintf("client: episode %d (key %s, %d steps) lost in failover: fleet restarted it as %d",
		e.EpisodeID, e.Key, e.Steps, e.FreshID)
}

// transportExhausted reports an error that means "this member is not
// answering at all": the retry policy ran out without ever seeing an HTTP
// response. HTTP-level failures (the member answered, just unhappily) are
// not grounds for failover.
func transportExhausted(err error) bool {
	var re *RetryExhaustedError
	return errors.As(err, &re) && re.LastStatus == 0
}

// StartEpisode opens an episode on the owner of a fresh routing key,
// failing over to the next surviving owner when a member is unreachable.
func (fc *FleetClient) StartEpisode() (*FleetEpisode, error) {
	key := newClientKey()
	if key == "" {
		return nil, fmt.Errorf("client: could not generate an episode key")
	}
	var lastErr error
	for hop := 0; hop < fc.memberCount(); hop++ {
		owner, ok := fc.view.Owner(key)
		if !ok {
			return nil, fmt.Errorf("client: every fleet member is marked down")
		}
		if hop > 0 {
			fc.syncDown(owner.ID)
		}
		ep, err := fc.client(owner.ID).StartEpisodeKeyed(key)
		if err == nil {
			return &FleetEpisode{fc: fc, key: key, ownerID: owner.ID, ep: ep}, nil
		}
		lastErr = err
		if !transportExhausted(err) {
			return nil, err
		}
		_, _ = fc.view.MarkDown(owner.ID)
	}
	return nil, fmt.Errorf("client: no fleet member accepted the episode: %w", lastErr)
}

// FleetEpisode drives one episode across the fleet. It implements
// controller.Controller like Episode, adding owner failover: when the
// current owner stops answering, the episode re-binds to whoever now owns
// its key and continues — retried steps deduplicate server-side, so the
// handoff has at-most-once effect.
type FleetEpisode struct {
	fc      *FleetClient
	key     string
	ownerID string
	ep      *Episode
}

var _ controller.Controller = (*FleetEpisode)(nil)

// ID returns the server-assigned episode id (stable across failovers while
// the episode's checkpoints survive).
func (e *FleetEpisode) ID() uint64 { return e.ep.ID() }

// Key returns the episode's routing key.
func (e *FleetEpisode) Key() string { return e.key }

// Owner returns the member currently serving the episode.
func (e *FleetEpisode) Owner() string { return e.ownerID }

// Steps returns the client-side count of applied observations.
func (e *FleetEpisode) Steps() int { return e.ep.Steps() }

// Name implements controller.Controller.
func (e *FleetEpisode) Name() string { return e.ep.Name() }

// Reset implements controller.Controller (no-op, as for Episode).
func (e *FleetEpisode) Reset(b pomdp.Belief) error { return e.ep.Reset(b) }

// failover re-routes the episode after its owner stopped answering:
// mark the owner down, restart the key on the new owner (dedupe or adoption
// returns the same episode), re-bind. The client-side step counter carries
// over — it is the dedupe cursor for retransmitted observations. On a traced
// client the whole re-bind is recorded as a client.failover span whose
// Target is the owner the episode moved to.
func (e *FleetEpisode) failover() error {
	c := e.ep.c
	if c.spans == nil {
		return e.rebind()
	}
	t0 := time.Now()
	err := e.rebind()
	rec := &obs.SpanRecord{
		TraceID: e.key, Kind: obs.SpanClientFailover, Target: e.ownerID,
		Start: t0.UnixNano(), Duration: time.Since(t0).Nanoseconds(),
	}
	if err != nil {
		rec.Err = err.Error()
		rec.Target = ""
	}
	c.spanEmit(rec)
	return err
}

// rebind is failover without the span bookkeeping.
func (e *FleetEpisode) rebind() error {
	_, _ = e.fc.view.MarkDown(e.ownerID)
	var lastErr error
	for hop := 0; hop < e.fc.memberCount(); hop++ {
		owner, ok := e.fc.view.Owner(e.key)
		if !ok {
			return fmt.Errorf("client: every fleet member is marked down")
		}
		e.fc.syncDown(owner.ID)
		fresh, err := e.fc.client(owner.ID).StartEpisodeKeyed(e.key)
		if err == nil {
			if fresh.ID() != e.ep.ID() && e.ep.Steps() > 0 {
				// The fleet answered with a brand-new episode: the original's
				// checkpoints (and any terminal tombstone) are gone. Binding
				// to it would silently replay recovery from step zero.
				_ = fresh.Abandon()
				return &EpisodeLostError{Key: e.key, EpisodeID: e.ep.ID(), FreshID: fresh.ID(), Steps: e.ep.Steps()}
			}
			fresh.steps = e.ep.steps
			fresh.open = e.ep.open
			fresh.next = e.ep.next
			e.ownerID = owner.ID
			e.ep = fresh
			return nil
		}
		lastErr = err
		if !transportExhausted(err) {
			return err
		}
		_, _ = e.fc.view.MarkDown(owner.ID)
	}
	return fmt.Errorf("client: episode %s found no surviving owner: %w", e.key, lastErr)
}

// withFailover runs op against the current binding, failing over and
// retrying when the owner is unreachable. Each failover consumes a hop;
// at most one full sweep of the fleet is attempted.
func (e *FleetEpisode) withFailover(op func() error) error {
	var err error
	for hop := 0; hop <= e.fc.memberCount(); hop++ {
		err = op()
		if err == nil || !transportExhausted(err) {
			return err
		}
		if ferr := e.failover(); ferr != nil {
			return ferr
		}
	}
	return err
}

// Decide implements controller.Controller with owner failover. A decision
// that came back with the last observation is returned locally, as by
// Episode.Decide. Decisions are cached per step server-side, so a decision
// retried across a handoff is byte-identical.
func (e *FleetEpisode) Decide() (controller.Decision, error) {
	var d controller.Decision
	err := e.withFailover(func() error {
		var derr error
		d, derr = e.ep.Decide()
		return derr
	})
	return d, err
}

// Observe implements controller.Controller with owner failover. The step
// index makes retransmits across the handoff idempotent, and the new owner
// answers a retransmit with the decision for the step — the terminal one
// from the replicated tombstone if the old owner ended the episode before
// it died.
func (e *FleetEpisode) Observe(action, obs int) error {
	return e.withFailover(func() error { return e.ep.Observe(action, obs) })
}

// Belief implements controller.Controller. Unlike Episode.Belief it goes
// through the failover wrapper, so a dead owner re-binds instead of
// silently returning nil.
func (e *FleetEpisode) Belief() pomdp.Belief {
	var out server.BeliefResponse
	err := e.withFailover(func() error {
		return e.ep.c.do(http.MethodGet, fmt.Sprintf("/v1/episodes/%d/belief", e.ep.id), e.ep.hdr, nil, &out, idemSafe)
	})
	if err != nil {
		return nil
	}
	return pomdp.Belief(out.Belief)
}

// Abandon deletes the episode wherever it currently lives.
func (e *FleetEpisode) Abandon() error {
	return e.withFailover(func() error { return e.ep.Abandon() })
}
