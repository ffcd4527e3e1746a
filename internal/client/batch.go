package client

import (
	"fmt"
	"io"
	"net/http"
	"sync"

	"bpomdp/internal/controller"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/server"
)

// DecideBatch asks the service for decisions at many beliefs in one
// POST /v1/decide/batch round-trip. The endpoint is stateless on the server
// — no episode is created or touched — so the request is naturally
// idempotent and retried under the full retry policy like every other
// idempotent call. Each bit-distinct belief is sent once, by the
// equivalence the server decides by (controller.BeliefGroups: +0 and −0
// stay apart), and its decision is copied to every duplicate. When the
// server refuses a deduplicated batch as malformed (400), the batch is
// sent once more as given, so that an error about a belief names it by
// the caller's index.
func (c *Client) DecideBatch(beliefs []pomdp.Belief) ([]controller.Decision, error) {
	decisions := make([]controller.Decision, len(beliefs))
	if err := c.decideBatch(beliefs, decisions); err != nil {
		return nil, err
	}
	return decisions, nil
}

// batchScratch is the pooled memory of one batch round: the grouping of
// its beliefs, the request of the distinct ones and the response decoded
// into reused memory.
type batchScratch struct {
	groups controller.BeliefGroups
	req    server.BatchDecideRequest
	dec    server.DecodeScratch
	resp   server.BatchDecideResponse
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// readBody decodes one attempt's response body into sc.resp.
func (sc *batchScratch) readBody(r io.Reader) error {
	sc.resp = server.BatchDecideResponse{}
	return sc.dec.ReadJSON(r, &sc.resp)
}

// decideBatch is DecideBatch writing decision i to out[i]; out holds at
// least len(beliefs) entries.
func (c *Client) decideBatch(beliefs []pomdp.Belief, out []controller.Decision) error {
	if len(beliefs) == 0 {
		return fmt.Errorf("client: empty belief batch")
	}
	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)
	distinct, of := sc.groups.Group(beliefs)
	err := c.sendBatch(sc, distinct)
	if StatusCode(err) == http.StatusBadRequest && len(distinct) < len(beliefs) {
		// The server names a bad belief by its index in the body it read.
		distinct, of = beliefs, nil
		err = c.sendBatch(sc, beliefs)
	}
	if err != nil {
		return err
	}
	ds := sc.resp.Decisions
	if len(ds) != len(distinct) {
		return fmt.Errorf("client: batch decide returned %d decisions for %d distinct beliefs", len(ds), len(distinct))
	}
	for i := range beliefs {
		k := i
		if of != nil {
			k = of[i]
		}
		out[i] = controller.Decision{Action: ds[k].Action, Terminate: ds[k].Terminate, Value: ds[k].Value}
	}
	return nil
}

// sendBatch posts beliefs as one batch and decodes the answer into sc.resp.
func (c *Client) sendBatch(sc *batchScratch, beliefs []pomdp.Belief) error {
	rows := sc.req.Beliefs[:0]
	for _, pi := range beliefs {
		rows = append(rows, pi)
	}
	sc.req.Beliefs = rows
	return c.do(http.MethodPost, "/v1/decide/batch", nil, &sc.req, sc)
}

// BatchDecider adapts the client to controller.BatchDecider, so the
// campaign engine's batched stepping mode can send each round's live
// beliefs to a remote daemon: sim.CampaignOptions{BatchSize: n,
// BatchDecider: c.BatchDecider().WithModel(prep.Model)}.
type BatchDecider struct {
	c     *Client
	model *pomdp.POMDP
}

var _ controller.BatchDecider = (*BatchDecider)(nil)

// BatchDecider returns the controller.BatchDecider view of the client.
func (c *Client) BatchDecider() *BatchDecider { return &BatchDecider{c: c} }

// WithModel records the (transformed) model the remote daemon decides over,
// so the campaign engine's belief filters track the same state space the
// endpoint validates against. Returns the receiver for chaining.
func (d *BatchDecider) WithModel(p *pomdp.POMDP) *BatchDecider {
	d.model = p
	return d
}

// Model returns the model set by WithModel, or nil. The campaign engine
// consults it to size its belief filters.
func (d *BatchDecider) Model() *pomdp.POMDP { return d.model }

// Name labels campaign results driven through the remote batch endpoint.
func (d *BatchDecider) Name() string { return "remote-batch" }

// DecideBatch implements controller.BatchDecider.
func (d *BatchDecider) DecideBatch(beliefs []pomdp.Belief, out []controller.Decision) error {
	if len(out) < len(beliefs) {
		return fmt.Errorf("client: batch decision buffer length %d < %d beliefs", len(out), len(beliefs))
	}
	return d.c.decideBatch(beliefs, out)
}
