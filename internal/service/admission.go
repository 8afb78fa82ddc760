package service

import (
	"context"
	"errors"
	"math"
	"net/http"
	"time"

	"oneport/internal/service/admit"
)

// This file binds the admission-control subsystem (internal/service/admit)
// into the serving path: the gate every scheduler run a client request
// starts passes (acquire), request cost estimation, priority
// classification, tenant extraction, and the shed response. Admission is
// opt-in (Config.Admission); without it the gate is the bare pool
// semaphore.
//
// The classification contract, from cheapest to most sheddable:
//
//	cache hits            never enter admission at all (byte-index and
//	                      canonical hits answer before any slot question)
//	session deltas        admit.Interactive — always served, never queued
//	cold cheap runs       admit.Cheap
//	cold expensive runs   admit.Expensive (cost ≥ expensiveCost)
//	batch jobs, sweeps    admit.Background — first against the wall
//
// A shed is decided before any pool slot is taken and answered 503 with a
// Retry-After derived from the observed queue drain rate — never the old
// hardcoded 1.

// apiKeyHeader carries the tenant identity; requests without it are
// accounted to defaultTenant.
const apiKeyHeader = "X-API-Key"

// defaultTenant is the accounting bucket for requests without an API key.
const defaultTenant = "default"

// expensiveCost is the cost-estimate threshold above which a cold run is
// classed Expensive: roughly "a few thousand task-units" — a 4000-node
// HEFT, or DLS beyond ~250 tasks, both of which hold a pool slot long
// enough to starve interactive traffic if admitted indiscriminately.
const expensiveCost = 2000

// heuristicWeight scales a request's task count into cost units: the
// rough per-task compute multiple of each heuristic class relative to a
// single HEFT probe sweep. DLS bounds every (ready task × processor) pair
// per commit and probes those that can still win, so it dominates; ILHA
// runs its chunked scan on top of HEFT-shaped probes; the listing
// baselines are sub-probe trivial.
var heuristicWeight = map[string]float64{
	"heft":        1,
	"heft-append": 1,
	"pct":         1,
	"dsc":         1.5,
	"ilha-levels": 1.5,
	"cpop":        2,
	"bil":         2,
	"ilha":        3,
	"dls":         8,
	"gdl":         8,
	"roundrobin":  0.5,
	"random":      0.5,
}

// estimateCost scores one normalized request: task count × heuristic
// weight, the admission queue's unit of work. Unknown heuristics (cannot
// happen post-normalize) score like HEFT.
func estimateCost(req *Request) float64 {
	w, ok := heuristicWeight[req.Heuristic]
	if !ok {
		w = 1
	}
	cost := float64(req.Graph.NumNodes()) * w
	if cost < 1 {
		cost = 1
	}
	return cost
}

// classifyRequest maps a normalized request onto its admission class and
// cost estimate. Only cold-run classes come from here — session deltas are
// tagged Interactive at the session surface, and batch/sweep traffic is
// forced to Background by its callers.
func classifyRequest(req *Request) (admit.Class, float64) {
	cost := estimateCost(req)
	if cost >= expensiveCost {
		return admit.Expensive, cost
	}
	return admit.Cheap, cost
}

// tenantOf extracts the accounting tenant from a request's API key header.
func tenantOf(r *http.Request) string {
	if k := r.Header.Get(apiKeyHeader); k != "" {
		return k
	}
	return defaultTenant
}

// lane is the admission identity one compute runs under: who pays
// (tenant), at what priority (class/cost), and which context bounds the
// queue wait (the client's — a shed must honor the client deadline, even
// though the compute itself runs on a detached context for singleflight
// followers).
type lane struct {
	ctx    context.Context
	tenant string
	class  admit.Class
	cost   float64
}

// clientLane is the lane of a client request's cold run: the request's
// class and cost, the tenant of its API key, and its client's context, so
// a queued request whose client hangs up (or whose deadline passes)
// leaves the admission queue without ever consuming a pool slot.
func clientLane(r *http.Request, req *Request) lane {
	class, cost := classifyRequest(req)
	return lane{ctx: r.Context(), tenant: tenantOf(r), class: class, cost: cost}
}

// acquire is the gate in front of every scheduler run a client request
// starts: with admission on, an admission ticket, decided before any pool
// slot is taken — the ticket IS the slot (admit.Config.Slots mirrors
// PoolSize), so the bare semaphore is bypassed, as two gates would
// deadlock under burst; without admission, a pool slot. The caller hands
// the ticket (nil without admission) back to release.
func (s *Server) acquire(ln lane) (*admit.Ticket, error) {
	if s.admission != nil {
		return s.admission.Acquire(ln.ctx, ln.tenant, ln.class, ln.cost)
	}
	s.sem <- struct{}{}
	return nil, nil
}

// release returns what acquire took.
func (s *Server) release(tk *admit.Ticket) {
	if tk != nil {
		tk.Release()
		return
	}
	<-s.sem
}

// shedResponse converts an admission failure into the 503 response. A
// ShedError carries the drain-rate Retry-After; a bare context error means
// the client hung up while queued (it gets a nominal retry hint — nobody
// is listening).
func (s *Server) shedResponse(key string, err error) Response {
	s.shed.Add(1)
	resp := Response{
		Key:        key,
		Error:      "service: request abandoned while queued for admission: " + err.Error(),
		code:       http.StatusServiceUnavailable,
		retryAfter: 1,
	}
	var se *admit.ShedError
	if errors.As(err, &se) {
		resp.Error, resp.retryAfter = "service: "+se.Error(), ceilSeconds(se.RetryAfter)
	}
	return resp
}

// retryAfterSeconds is the service-wide backoff hint for 503 responses
// (deadline expiries, shed computes): with admission on, the queue's
// drain-rate estimate; without it, the EWMA of recent compute times scaled
// by how many pool "waves" are ahead of a retry. Always in [1, 60].
func (s *Server) retryAfterSeconds() int {
	if s.admission != nil {
		return ceilSeconds(s.admission.RetryAfter())
	}
	ewma := s.svcNanos.Load()
	if ewma <= 0 {
		return 1
	}
	waves := (s.inFlight.Load() + int64(s.cfg.PoolSize) - 1) / int64(s.cfg.PoolSize)
	if waves < 1 {
		waves = 1
	}
	return ceilSeconds(time.Duration(waves * ewma))
}

// observeServiceTime folds one compute duration into the EWMA behind
// retryAfterSeconds (α = 0.2; the load/store race only blurs an estimate).
func (s *Server) observeServiceTime(elapsed time.Duration) {
	old := s.svcNanos.Load()
	if old == 0 {
		s.svcNanos.Store(elapsed.Nanoseconds())
		return
	}
	s.svcNanos.Store(old - old/5 + elapsed.Nanoseconds()/5)
}

// ceilSeconds rounds a duration up to whole seconds, clamped to [1, 60].
func ceilSeconds(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		return 1
	}
	if secs > 60 {
		return 60
	}
	return secs
}
