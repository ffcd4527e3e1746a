package client

import (
	"fmt"
	"net/http"

	"bpomdp/internal/controller"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/server"
)

// DecideBatch asks the service for decisions at many beliefs in one
// POST /v1/decide/batch round-trip. The endpoint is stateless on the server
// — no episode is created or touched — so the request is naturally
// idempotent and retried under the full retry policy like every other
// idempotent call.
func (c *Client) DecideBatch(beliefs []pomdp.Belief) ([]controller.Decision, error) {
	if len(beliefs) == 0 {
		return nil, fmt.Errorf("client: empty belief batch")
	}
	req := server.BatchDecideRequest{Beliefs: make([][]float64, len(beliefs))}
	for i, b := range beliefs {
		req.Beliefs[i] = b
	}
	var out server.BatchDecideResponse
	if err := c.do(http.MethodPost, "/v1/decide/batch", nil, &req, &out); err != nil {
		return nil, err
	}
	if len(out.Decisions) != len(beliefs) {
		return nil, fmt.Errorf("client: batch decide returned %d decisions for %d beliefs", len(out.Decisions), len(beliefs))
	}
	decisions := make([]controller.Decision, len(out.Decisions))
	for i, d := range out.Decisions {
		decisions[i] = controller.Decision{Action: d.Action, Terminate: d.Terminate, Value: d.Value}
	}
	return decisions, nil
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
	decisions, err := d.c.DecideBatch(beliefs)
	if err != nil {
		return err
	}
	copy(out, decisions)
	return nil
}
