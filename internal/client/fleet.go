package client

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"time"

	"bpomdp/internal/fleet"
	"bpomdp/internal/obs"
)

// FleetClient talks to a recovery fleet without a coordinator: it computes
// each episode's owner locally from the same hash ring the servers use and
// sends requests straight to the owner. Two self-healing paths cover stale
// views:
//
//   - A member that disagrees (its view is newer or the client's is stale)
//     answers 307 + X-Bpomdp-Owner, which the client follows within the
//     same attempt, re-sending the body — requests always land somewhere
//     correct.
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
// match the servers). As in New, only httpClient's Transport is used
// (http.DefaultTransport when nil), an httpClient that sets Timeout, Jar or
// CheckRedirect is refused, and the Transport must not modify requests,
// whose header maps are shared; opts apply to every per-member client.
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
		_ = c.do(http.MethodPost, "/v1/fleet/members/"+url.PathEscape(m.ID)+"/down", nil, nil, nil)
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
// The episode fails over the same way for the rest of its life.
func (fc *FleetClient) StartEpisode() (*Episode, error) {
	key, err := newClientKey()
	if err != nil {
		return nil, err
	}
	ep, owner, err := fc.startOnOwner(key, false)
	if err != nil {
		return nil, err
	}
	ep.fc, ep.owner = fc, owner
	return ep, nil
}

// startOnOwner starts key on the member that owns it and returns the plain
// episode and that member's id. A member that does not answer at all is
// marked down and the key moves to the next surviving owner, which first
// hears of every death this client knows (syncDown). syncFirst asks for
// that report on the first hop too; a failover sets it, since it has just
// marked the old owner down.
func (fc *FleetClient) startOnOwner(key string, syncFirst bool) (*Episode, string, error) {
	var lastErr error
	for hop := 0; hop < fc.memberCount(); hop++ {
		owner, ok := fc.view.Owner(key)
		if !ok {
			return nil, "", fmt.Errorf("client: every fleet member is marked down")
		}
		if syncFirst || hop > 0 {
			fc.syncDown(owner.ID)
		}
		// Opened eagerly: failover needs to know the start's answer.
		ep, err := fc.client(owner.ID).StartEpisodeKeyed(key)
		if err == nil {
			err = ep.start()
		}
		if err == nil {
			return ep, owner.ID, nil
		}
		lastErr = err
		if !transportExhausted(err) {
			return nil, "", err
		}
		_, _ = fc.view.MarkDown(owner.ID)
	}
	return nil, "", fmt.Errorf("client: no fleet member accepted episode %s: %w", key, lastErr)
}

// withFailover runs op against the episode's current binding. In a fleet,
// when the owner is unreachable it fails over and runs op again; each
// failover consumes a hop, and at most one full sweep of the fleet is
// attempted. Outside a fleet it just runs op.
func (e *Episode) withFailover(op func() error) error {
	if e.fc == nil {
		return op()
	}
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

// failover re-binds the episode in place after its owner stopped answering:
// mark the owner down, restart the key on the new owner (dedupe or adoption
// returns the same episode), and swap in that member's client and id. The
// step counter (the dedupe cursor for retransmitted observations), the open
// flag and any piggybacked decision stay as they are. The fresh id is
// adopted only when no step was applied; otherwise a different id means the
// episode was lost. On a traced client the whole re-bind is recorded as a
// client.failover span whose Target is the owner the episode moved to.
func (e *Episode) failover() error {
	t0 := time.Now()
	_, _ = e.fc.view.MarkDown(e.owner)
	fresh, owner, err := e.fc.startOnOwner(e.key, true)
	if err == nil && fresh.id != e.id && e.steps > 0 {
		// The fleet answered with a brand-new episode: the original's
		// checkpoints (and any terminal tombstone) are gone. Binding to it
		// would silently replay recovery from step zero.
		_ = fresh.Abandon()
		err = &EpisodeLostError{Key: e.key, EpisodeID: e.id, FreshID: fresh.id, Steps: e.steps}
	}
	if err == nil {
		e.c, e.owner = fresh.c, owner
		e.bind(fresh.id)
	}
	if e.c.spans != nil {
		rec := &obs.SpanRecord{
			TraceID: e.key, Kind: obs.SpanClientFailover,
			Start: t0.UnixNano(), Duration: time.Since(t0).Nanoseconds(),
		}
		if err != nil {
			rec.Err = err.Error()
		} else {
			rec.Target = e.owner
		}
		e.c.spanEmit(rec)
	}
	return err
}
