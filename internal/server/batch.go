package server

import (
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"

	"bpomdp/internal/controller"
	"bpomdp/internal/pomdp"
)

// Batch-decision payloads.
type (
	// BatchDecideRequest is the body of POST /v1/decide/batch: one belief
	// (a distribution over the model's states) per decision wanted.
	BatchDecideRequest struct {
		Beliefs [][]float64 `json:"beliefs"`
	}
	// BatchDecideResponse is returned by POST /v1/decide/batch. Decision i
	// answers belief i.
	BatchDecideResponse struct {
		Decisions []DecisionResponse `json:"decisions"`
	}
)

// getBatchDecider fetches a pooled batch decider, building a fresh one from
// the factory when the pool is empty.
func (s *Server) getBatchDecider() (controller.BatchDecider, error) {
	if bd, ok := s.batchPool.Get().(controller.BatchDecider); ok {
		return bd, nil
	}
	bd, err := s.cfg.NewBatchDecider()
	if err != nil {
		return nil, fmt.Errorf("batch decider factory: %w", err)
	}
	if bd == nil {
		return nil, errors.New("batch decider factory returned nil")
	}
	return bd, nil
}

// batchScratch is the per-request memory of POST /v1/decide/batch. It is
// pooled, so the steady state allocates no belief or decision storage.
type batchScratch struct {
	beliefs   DecodeScratch
	pis       []pomdp.Belief
	decisions []controller.Decision
	resp      []DecisionResponse
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// handleBatchDecide serves POST /v1/decide/batch: decisions for many
// beliefs in one stateless request. The decider is taken from a pool, so
// repeated batches re-use the same engine scratch and the steady state
// builds no controllers.
func (s *Server) handleBatchDecide(w http.ResponseWriter, r *http.Request) {
	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)
	var req BatchDecideRequest
	if !s.decodeBody(w, r, &req, &sc.beliefs, "batch decide request") {
		return
	}
	if len(req.Beliefs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("no beliefs in batch"))
		return
	}
	if len(req.Beliefs) > maxBatchBeliefs {
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch of %d beliefs over cap %d", len(req.Beliefs), maxBatchBeliefs))
		return
	}
	n := s.cfg.Model.NumStates()
	beliefs := sc.pis[:0]
	for i, b := range req.Beliefs {
		if len(b) != n {
			writeError(w, http.StatusBadRequest, fmt.Errorf("belief %d has length %d, want %d", i, len(b), n))
			return
		}
		pi := pomdp.Belief(b)
		if !pi.IsDistribution() {
			writeError(w, http.StatusBadRequest, fmt.Errorf("belief %d is not a distribution", i))
			return
		}
		beliefs = append(beliefs, pi)
	}
	sc.pis = beliefs

	bd, err := s.getBatchDecider()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	decisions := slices.Grow(sc.decisions[:0], len(beliefs))[:len(beliefs)]
	clear(decisions)
	sc.decisions = decisions
	if err := bd.DecideBatch(beliefs, decisions); err != nil {
		// The decider may be mid-batch in an unknown state; drop it rather
		// than pooling it.
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.batchPool.Put(bd)

	resp := sc.resp[:0]
	for _, d := range decisions {
		resp = append(resp, s.decisionResponse(d))
	}
	sc.resp = resp
	s.m.batchRequests.Inc()
	s.m.batchDecisions.Add(uint64(len(decisions)))
	writeJSON(w, http.StatusOK, BatchDecideResponse{Decisions: resp})
}
