// Package service is the scheduling server: it turns the library's
// single-shot heuristics into a long-running, concurrent HTTP/JSON
// subsystem. A request carries a task graph, a platform, a heuristic name,
// a communication model and options; the server runs it on a bounded worker
// pool where each in-flight run borrows pooled probe scratch
// (heuristics.Scratch, from one sync.Pool for every platform size), so
// steady-state requests stay near-zero-alloc in the scheduler core, and
// returns the validated schedule.
//
// The HTTP handler is the only entry point, and each phase of serving
// exists once: every body is read by one pooled, size-capped read and
// decoded by the request codec or one strict decoder; every scheduler run
// a client request starts — a cold /schedule or /cache/peer run, a /batch
// job, a session open — first passes one gate (a pool slot, or an
// admission ticket); identical cold requests and batch jobs share one
// singleflight; and a failed Response carries its own HTTP status.
//
// Results are cached in an LRU keyed by a canonical content hash of
// (graph, platform, heuristic, model, options) — see CanonicalKey — so a
// repeated request is a cache hit that never re-enters the scheduler.
// Entries also carry the pre-encoded response bytes indexed by the SHA-256
// of the raw request body, so the repeat of an identical request is served
// as a hash + Write without any JSON work at all.
// Sweep-shaped payloads can be batched (POST /batch) through the same pool.
// The sharded sweep protocol built on top lives in the sweep subpackage.
//
// Overload is handled in front of the pool, not inside it. With admission
// control enabled (Config.Admission, schedserve -admission), every
// non-cache-hit run is cost-estimated (task count × a per-heuristic
// weight), classified (interactive / cheap / expensive / background) and
// admitted through internal/service/admit: per-tenant token-bucket and
// concurrency quotas (tenant = X-API-Key header, "default" otherwise),
// weighted-fair dequeue, a deadline-aware bounded queue, and a brownout
// ladder that sheds the lowest classes first as the queue deepens. A shed
// is always an immediate 503 with a numeric Retry-After derived from the
// measured queue drain rate — never a request that burned a pool slot —
// and cache hits and session deltas bypass admission entirely. GET
// /metrics exports the full stats surface in Prometheus text format.
//
// Endpoints (Server.Handler): POST /schedule, POST /batch; sessions:
// POST /session, POST /session/{id}/delta, GET /session/{id}/export,
// DELETE /session/{id}; replica to replica: POST /session/peer/import,
// POST /cache/peer; ring membership: GET /ring, POST /ring; operations:
// GET /healthz, GET /readyz, GET /stats, GET /metrics.
package service

import (
	"fmt"
	"net/http"
	"strconv"

	"oneport/internal/cli"
	"oneport/internal/graph"
	"oneport/internal/heuristics"
	"oneport/internal/platform"
	"oneport/internal/sched"
)

// Options tunes the heuristic of one request.
type Options struct {
	// B is ILHA's chunk size (0 lets ILHA pick the platform default).
	B int `json:"b,omitempty"`
	// ScanDepth is ILHA's Step-1 scan depth.
	ScanDepth int `json:"scan_depth,omitempty"`
	// ProbeParallelism is accepted and ignored: every run probes on one
	// goroutine. A negative value is still rejected, and the field is not
	// part of the cache key.
	//
	// Deprecated: clients written for an earlier server still send it.
	ProbeParallelism int `json:"probe_parallelism,omitempty"`
}

// Request is one scheduling job: everything needed to reproduce the
// schedule from scratch.
type Request struct {
	Graph     *graph.Graph       `json:"graph"`
	Platform  *platform.Platform `json:"platform"`
	Heuristic string             `json:"heuristic"`
	// Model names the communication model ("oneport", "macro", "uniport",
	// "nooverlap", "linkcontention"); empty means "oneport".
	Model   string  `json:"model,omitempty"`
	Options Options `json:"options,omitempty"`
}

// normalize validates the request's scalar fields and resolves defaults.
// It returns the parsed model; graph and platform content is validated by
// their JSON codecs and again by the scheduler.
func (r *Request) normalize() (sched.Model, error) {
	if r.Graph == nil || r.Graph.NumNodes() == 0 {
		return 0, fmt.Errorf("service: request has no graph")
	}
	if r.Platform == nil || r.Platform.NumProcs() == 0 {
		return 0, fmt.Errorf("service: request has no platform")
	}
	if r.Heuristic == "" {
		r.Heuristic = "heft"
	}
	if _, err := heuristics.ByName(r.Heuristic, heuristics.ILHAOptions{}); err != nil {
		return 0, err
	}
	if r.Model == "" {
		r.Model = "oneport"
	}
	model, err := cli.ParseModel(r.Model)
	if err != nil {
		return 0, err
	}
	// rewrite aliases ("macro-dataflow", "1port", ...) to the canonical
	// name so equivalent requests share one cache key
	r.Model = cli.ModelName(model)
	if r.Options.B < 0 {
		return 0, fmt.Errorf("service: B = %d must be non-negative", r.Options.B)
	}
	if r.Options.ScanDepth < 0 {
		return 0, fmt.Errorf("service: scan_depth = %d must be non-negative", r.Options.ScanDepth)
	}
	if r.Options.ProbeParallelism < 0 {
		return 0, fmt.Errorf("service: probe_parallelism = %d must be non-negative", r.Options.ProbeParallelism)
	}
	return model, nil
}

// Response is the outcome of one scheduling job. For batch entries that
// failed, Error is set and every other field is zero.
type Response struct {
	// Key is the canonical cache key of the request (hex SHA-256).
	Key       string  `json:"key"`
	Heuristic string  `json:"heuristic"`
	Model     string  `json:"model"`
	Tasks     int     `json:"tasks"`
	Makespan  float64 `json:"makespan"`
	// Speedup is sequential-time-on-the-fastest-processor / makespan, the
	// paper's figure axis.
	Speedup float64 `json:"speedup"`
	Comms   int     `json:"comms"`
	// Cached reports that the schedule was served from the result cache.
	Cached bool `json:"cached"`
	// ElapsedNs is the scheduler time of the run that produced the
	// schedule (not the cache lookup).
	ElapsedNs int64           `json:"elapsed_ns"`
	Schedule  *sched.Schedule `json:"schedule,omitempty"`
	Error     string          `json:"error,omitempty"`

	// code is the HTTP status of a failed Response: 500 for a server
	// fault (a panic, a produced schedule failing validation), 503 for a
	// shed or a run past Config.RequestTimeout, and 0 for the request's
	// own fault, answered 400. retryAfter is the whole seconds a 503
	// carries in its Retry-After header.
	code       int
	retryAfter int
	// relayStreamed marks a singleflight result whose leader streamed a
	// peer relay to its own client: there is nothing shareable, so
	// followers retry their flight (bounded by maxServeAttempts).
	relayStreamed bool
}

// status returns the HTTP status r is answered with, and sets its
// Retry-After on w when it carries one.
func (r *Response) status(w http.ResponseWriter) int {
	switch {
	case r.Error == "":
		return http.StatusOK
	case r.code == 0:
		return http.StatusBadRequest
	}
	if r.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(r.retryAfter))
	}
	return r.code
}

// Batch is the payload of POST /batch: independent requests executed
// concurrently on the worker pool, answered in input order.
type Batch struct {
	Requests []Request `json:"requests"`
}

// BatchResponse answers a Batch; Responses[i] matches Requests[i].
type BatchResponse struct {
	Responses []Response `json:"responses"`
}
