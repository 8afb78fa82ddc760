package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"oneport/internal/heuristics"
	"oneport/internal/sched"
	"oneport/internal/service/admit"
	"oneport/internal/service/breaker"
	"oneport/internal/service/journal"
	"oneport/internal/service/relay"
	"oneport/internal/service/session"
)

// maxBodyBytes bounds request payloads (graphs of several hundred thousand
// edges fit comfortably; unbounded bodies would let one client exhaust the
// server).
const maxBodyBytes = 64 << 20

// streamBytes is the streaming threshold: responses whose estimated
// encoding exceeds 1 MiB are encoded straight to the wire instead of
// staged in pooled buffers, and their cache entries get no encoded bytes.
const streamBytes = 1 << 20

// Config sizes a Server.
type Config struct {
	// PoolSize bounds the number of concurrently executing scheduler runs
	// (default: GOMAXPROCS): every run a client request starts — a cold
	// /schedule or /cache/peer run, a /batch job, a session open — first
	// takes one of its slots (with Admission, an admission ticket), so
	// requests beyond it queue on the pool, not in new goroutine pile-ups.
	// Session deltas, imports and journal recovery run outside the pool.
	PoolSize int
	// CacheSize is the LRU result-cache capacity in entries (default 256;
	// negative disables caching).
	CacheSize int

	// Self is this replica's advertised base URL (e.g. "http://h1:8642")
	// and Peers the full replica list of the distributed encoded-response
	// cache. Every replica must be handed the same list (order and
	// trailing slashes are normalized away; Self may or may not appear in
	// Peers) so the fleet agrees on key ownership. Empty Self or Peers
	// means single-replica operation.
	Self  string
	Peers []string
	// PeerClient is the HTTP client used for replica-internal fill
	// requests (default: a client with a compute-scale timeout).
	PeerClient *http.Client
	// Breaker tunes the per-peer circuit breakers guarding every peer
	// path (zero value: breaker package defaults — open on first failure,
	// 500ms base backoff doubling to 30s, 20% jitter).
	Breaker breaker.Config
	// AdminToken, when non-empty, enables the /ring admin surface (live
	// membership swaps) behind `Authorization: Bearer <token>`. Empty
	// leaves the surface disabled (403), not open.
	AdminToken string
	// RequestTimeout, when positive, bounds each scheduler run: a run
	// whose compute exceeds it is aborted at its next task commit and the
	// request answered 503 with a Retry-After header (counted in
	// Stats.Timeouts). The deadline spans the run itself, not queueing or
	// I/O, and is independent of the client connection — a singleflight
	// leader computes for its followers even if its own client hangs up.
	RequestTimeout time.Duration

	// MaxSessions bounds the scheduling-session table (0: the session
	// package default) and SessionTTL the idle time after which a session
	// may be evicted to admit a new one (0: package default; negative:
	// sessions never expire). Session warm state is replica-local, but
	// with SessionJournal set sessions survive crashes (write-ahead delta
	// journal, replayed by RecoverSessions) and follow the ring on drain
	// (DrainSessions ships each one to its key's owner) — see DESIGN.md
	// "Session durability & handoff".
	MaxSessions int
	SessionTTL  time.Duration
	// SessionJournal, when non-nil, is the per-session write-ahead journal
	// store (internal/service/journal): opens and deltas are journaled
	// before they are acked, and the server reports not-ready on /readyz
	// until RecoverSessions has replayed the directory. nil keeps sessions
	// volatile.
	SessionJournal *journal.Store

	// Admission, when non-nil, puts a deadline- and priority-aware
	// admission queue with per-tenant quotas and a brownout ladder in
	// front of the compute pool (see internal/service/admit): cold runs
	// are cost-estimated, classed, and queued or shed before any pool
	// slot is taken; cache hits and session deltas bypass it entirely.
	// Slots defaults to PoolSize. nil keeps the bare bounded pool.
	Admission *admit.Config
}

// Server executes scheduling requests on a bounded worker pool with pooled
// probe scratch and an LRU result cache. It is safe for concurrent use;
// construct with New.
type Server struct {
	cfg       Config
	sem       chan struct{}
	scratch   sync.Pool // *heuristics.Scratch, for platforms of every size
	cache     *resultCache
	flights   flightGroup
	peers     *peerSet          // nil: single-replica
	admission *admit.Controller // nil: bare bounded pool
	sessions  *session.Manager
	start     time.Time

	requests  atomic.Int64 // single /schedule jobs accepted
	batches   atomic.Int64 // /batch payloads accepted
	batchJobs atomic.Int64 // jobs inside batch payloads
	hits      atomic.Int64
	bodyHits  atomic.Int64 // subset of hits served from the raw-body byte index
	misses    atomic.Int64
	coalesced atomic.Int64 // requests that shared an identical in-flight run
	peerHits  atomic.Int64 // requests answered with bytes fetched from the owner replica
	peerFills atomic.Int64 // inbound /cache/peer fill requests accepted
	timeouts  atomic.Int64 // runs aborted at the RequestTimeout deadline (503)
	shed      atomic.Int64 // requests refused by admission control (503)
	errors    atomic.Int64
	inFlight  atomic.Int64 // scheduler runs currently executing
	svcNanos  atomic.Int64 // EWMA of compute durations, for Retry-After hints

	draining         atomic.Bool  // drain begun: opens/imports refused, readyz not-ready
	recovering       atomic.Bool  // journal replay in progress: readyz not-ready
	sessionRedirects atomic.Int64 // session requests 307ed to the id's ring owner

	// streamAt is the streaming threshold, streamBytes; tests lower it.
	streamAt int
	// testHook, when non-nil, runs inside run between the scratch borrow
	// and the heuristic call. Tests use it to inject panics (the
	// recovery path cannot be reached through valid inputs) and to gate
	// compute for coalescing assertions. Never set in production.
	testHook func(*Request)
}

// New returns a ready Server.
func New(cfg Config) *Server {
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 256
	}
	var ctrl *admit.Controller
	if cfg.Admission != nil {
		ac := *cfg.Admission
		if ac.Slots <= 0 {
			ac.Slots = cfg.PoolSize
		}
		ctrl = admit.New(ac)
	}
	s := &Server{
		cfg:       cfg,
		sem:       make(chan struct{}, cfg.PoolSize),
		scratch:   sync.Pool{New: func() any { return heuristics.NewScratch() }},
		cache:     newResultCache(cfg.CacheSize),
		peers:     newPeerSet(cfg.Self, cfg.Peers, cfg.PeerClient, cfg.Breaker),
		admission: ctrl,
		sessions: session.NewManager(session.Config{
			MaxSessions: cfg.MaxSessions, TTL: cfg.SessionTTL, Journal: cfg.SessionJournal}),
		start:    time.Now(),
		streamAt: streamBytes,
	}
	// a journal directory may hold acked sessions: stay not-ready until
	// RecoverSessions has replayed it, so a load balancer never routes a
	// pinned client to a replica that would 404 its session
	s.recovering.Store(cfg.SessionJournal != nil)
	return s
}

// RecoverSessions replays the session journal directory (no-op without
// Config.SessionJournal) and clears the not-ready gate /readyz holds while
// the replay runs. Callers embedding the server should invoke it once,
// before or concurrently with serving; session ids are random, so traffic
// for ids still mid-replay simply 404s (or 307s) until their journal is
// done.
func (s *Server) RecoverSessions(ctx context.Context) (recovered, failed int, err error) {
	defer s.recovering.Store(false)
	return s.sessions.Recover(ctx)
}

// maxServeAttempts bounds how many times one request enters the
// singleflight after waiting out another caller's streamed peer relay
// (streamed relays go to the leader's own client and are never cached, so
// followers must retry).
const maxServeAttempts = 3

// serveFlight resolves a request below the byte index under singleflight:
// among concurrent identical cold requests — clients, peer-forwarded fills
// and batch jobs — one leader resolves the key by a canonical hit, a peer
// fill (when fill is set) or a local compute, and the rest wait and share
// its result (counted in coalesced). The leader re-checks the cache: a
// flight that completed between a caller's miss and its leadership has
// already filled the entry. A fill relays raw to the key's owner, so N
// concurrent identical cold requests on a non-owner replica cost one owner
// fetch — never N full-body transfers — and the owner's own flight bounds
// the fleet to one run. enc, when non-nil, is the reply every caller
// writes verbatim: the entry's hit bytes, a run's miss reply or the
// owner's bytes; nil means resp must be encoded (errors, streamed sizes).
//
// A stream-marked owner response is a wire stream, not bytes, so it cannot
// be shared: the leader returns it for its own client, and followers see
// resp.relayStreamed and retry; after maxServeAttempts a follower computes
// outside the flight — bounded work, no livelock.
func (s *Server) serveFlight(req *Request, sum [sha256.Size]byte, key string, model sched.Model, fill bool, raw []byte, ln lane) (Response, []byte, *relay.Reply) {
	for attempt := 0; ; attempt++ {
		var stream *relay.Reply
		resp, enc := s.flights.do(key,
			func() { s.coalesced.Add(1) },
			func() (Response, []byte) {
				if resp, enc, ok := s.cache.get(key); ok {
					s.hits.Add(1)
					return resp, enc
				}
				if fill && s.peers != nil {
					resp, enc, rep, ok := s.peerFill(ln.ctx, sum, key, raw, ln.tenant)
					if rep != nil {
						stream = rep
						return Response{relayStreamed: true}, nil
					}
					if ok {
						return resp, enc
					}
				}
				s.misses.Add(1)
				return s.compute(req, key, model, ln)
			})
		if stream != nil || !resp.relayStreamed {
			return resp, enc, stream
		}
		if attempt >= maxServeAttempts-1 {
			s.misses.Add(1)
			resp, enc = s.compute(req, key, model, ln)
			return resp, enc, nil
		}
	}
}

// compute runs the scheduler for one request and caches a clean result.
// The result is encoded once, outside the pool slot, into its miss reply
// (returned for the caller to write) and the cache entry's hit bytes;
// results above the streaming threshold are cached without bytes.
func (s *Server) compute(req *Request, key string, model sched.Model, ln lane) (Response, []byte) {
	resp := s.run(req, key, model, ln)
	if resp.Error != "" {
		return resp, nil
	}
	var miss, hit []byte
	if !s.shouldStream(&resp) {
		miss, hit = encodeEntry(resp)
	}
	s.cache.add(key, &resp, hit)
	return resp, miss
}

// run is compute's scheduler run, behind the gate (acquire): a shed is
// answered before any pool slot is taken. It is panic-hardened: a
// panicking heuristic becomes a 500 response instead of escaping the
// "never panics" contract. The pooled Scratch goes back via defer on every
// normal path; on a panic it is deliberately dropped, not re-pooled: the
// heuristic's own reclaim defer runs during unwinding and may have
// restocked it with the dead run's buffers, which a panic can leave
// half-written — dropping the one Scratch is the safe option, and the pool
// regrows a fresh one on demand.
func (s *Server) run(req *Request, key string, model sched.Model, ln lane) (resp Response) {
	tk, err := s.acquire(ln)
	if err != nil {
		return s.shedResponse(key, err)
	}
	defer func() {
		s.release(tk)
		if resp.code == http.StatusServiceUnavailable {
			// a run past its deadline: the hint counts its slot as free
			resp.retryAfter = s.retryAfterSeconds()
		}
	}()
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	sc := s.scratch.Get().(*heuristics.Scratch)
	defer func() {
		if r := recover(); r != nil {
			s.errors.Add(1)
			resp = Response{Key: key, Error: fmt.Sprintf("service: internal fault: %v", r), code: http.StatusInternalServerError}
			return // sc dropped, not pooled — see the function comment
		}
		s.scratch.Put(sc)
	}()

	tune := &heuristics.Tuning{Scratch: sc}
	if d := s.cfg.RequestTimeout; d > 0 {
		// deadline on a fresh context, NOT the client request's: a
		// singleflight leader computes for its followers, so its own
		// client hanging up must not abort the shared run
		ctx, cancel := context.WithTimeout(context.Background(), d)
		defer cancel()
		tune.Ctx = ctx
	}
	fn, err := heuristics.ByNameTuned(req.Heuristic,
		heuristics.ILHAOptions{B: req.Options.B, ScanDepth: req.Options.ScanDepth}, tune)
	if err != nil {
		s.errors.Add(1)
		return Response{Key: key, Error: err.Error()}
	}
	if s.testHook != nil {
		s.testHook(req)
	}
	began := time.Now()
	schedule, err := fn(req.Graph, req.Platform, model)
	elapsed := time.Since(began)
	s.observeServiceTime(elapsed)
	if err != nil {
		s.errors.Add(1)
		if errors.Is(err, heuristics.ErrCanceled) {
			s.timeouts.Add(1)
			return Response{Key: key, Error: fmt.Sprintf(
				"service: compute exceeded the %s request deadline", s.cfg.RequestTimeout), code: http.StatusServiceUnavailable}
		}
		return Response{Key: key, Error: err.Error()}
	}
	if err := sched.Validate(req.Graph, req.Platform, schedule, model); err != nil {
		s.errors.Add(1)
		return Response{Key: key, Error: fmt.Sprintf("service: produced schedule failed validation: %v", err), code: http.StatusInternalServerError}
	}

	// a graph of all-zero weights legally yields makespan 0; guard the
	// division so the response never carries a NaN JSON cannot encode
	speedup := 0.0
	if ms := schedule.Makespan(); ms > 0 {
		speedup = req.Platform.SequentialTime(req.Graph.TotalWeight()) / ms
	}
	return Response{
		Key:       key,
		Heuristic: req.Heuristic,
		Model:     req.Model,
		Tasks:     req.Graph.NumNodes(),
		Makespan:  schedule.Makespan(),
		Speedup:   speedup,
		Comms:     schedule.CommCount(),
		ElapsedNs: elapsed.Nanoseconds(),
		Schedule:  schedule,
	}
}

// runBatch executes a batch's jobs concurrently, at most PoolSize at a
// time, and returns responses in input order. Per-job failures are
// reported in the matching Response.Error; one bad job never fails its
// neighbours.
func (s *Server) runBatch(ctx context.Context, b *Batch, tenant string) BatchResponse {
	out := BatchResponse{Responses: make([]Response, len(b.Requests))}
	workers := s.cfg.PoolSize
	if workers > len(b.Requests) {
		workers = len(b.Requests)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(b.Requests) {
					return
				}
				out.Responses[i] = s.runBatchJob(ctx, &b.Requests[i], tenant)
			}
		}()
	}
	wg.Wait()
	return out
}

// runBatchJob serves one batch job through the flight, with no peer fill
// (batch jobs always compute locally, but identical jobs still coalesce),
// under a batch job's lane: the caller's tenant and context, class
// Background regardless of cost — the first traffic the brownout ladder
// sheds.
func (s *Server) runBatchJob(ctx context.Context, req *Request, tenant string) Response {
	model, err := req.normalize()
	if err != nil {
		s.errors.Add(1)
		return Response{Error: err.Error()}
	}
	sum := CanonicalSum(req)
	resp, _, _ := s.serveFlight(req, sum, hex.EncodeToString(sum[:]), model, false, nil,
		lane{ctx: ctx, tenant: tenant, class: admit.Background, cost: estimateCost(req)})
	return resp
}

// Handler returns the server's HTTP surface:
//
//	POST   /schedule            one Request  -> one Response
//	POST   /batch               {"requests":[...]} -> {"responses":[...]}
//	POST   /session             open a scheduling session (body: a Request)
//	POST   /session/{id}/delta  apply a delta batch, get the re-schedule
//	GET    /session/{id}/export session snapshot for a peer import
//	DELETE /session/{id}        close a session
//	POST   /session/peer/import replica-internal session handoff receive
//	POST   /cache/peer          replica-internal distributed-cache fill
//	GET    /ring                current membership epoch (admin token required)
//	POST   /ring                live membership swap (admin token required)
//	GET    /healthz             liveness (process up)
//	GET    /readyz              readiness (not draining/recovering/browned out)
//	GET    /stats               counters (requests, cache hits/misses, ...)
//	GET    /metrics             the same counters in Prometheus text format
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /schedule", s.handleSchedule)
	mux.HandleFunc("POST /batch", s.handleBatch)
	mux.HandleFunc("POST /session", s.handleSessionOpen)
	mux.HandleFunc("POST /session/{id}/delta", s.handleSessionDelta)
	mux.HandleFunc("GET /session/{id}/export", s.handleSessionExport)
	mux.HandleFunc("DELETE /session/{id}", s.handleSessionClose)
	mux.HandleFunc("POST /session/peer/import", s.handleSessionImport)
	mux.HandleFunc("POST /cache/peer", s.handleCachePeer)
	mux.HandleFunc("GET /ring", s.handleRingGet)
	mux.HandleFunc("POST /ring", s.handleRingPost)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	s.serveSchedule(w, r, false)
}

// handleCachePeer is the owner-side half of the distributed cache: another
// replica relays a raw request body here when this replica owns its
// canonical key on the ring. It behaves exactly like /schedule — byte-index
// fast path, compute-and-cache on miss, identical response bytes — except
// that it never forwards again (a misconfigured fleet cannot loop) and the
// request counts as a peer fill, not client traffic.
//
// Before any body work the relay's ring-epoch tag is checked against the
// epoch this replica is serving; a mismatch is answered 409 so the
// requester computes locally. This is the no-split-brain invariant: a
// relay routed by one membership map is never served under another.
func (s *Server) handleCachePeer(w http.ResponseWriter, r *http.Request) {
	if s.guardEpoch(w, r, "relay") {
		s.serveSchedule(w, r, true)
	}
}

// guardEpoch applies the relay's epoch guard to an inbound
// replica-internal call, answering 409 on a mismatch, and reports whether
// the call may proceed. A replica without an identity serves epoch 0.
func (s *Server) guardEpoch(w http.ResponseWriter, r *http.Request, what string) bool {
	var rl *relay.Relay
	cur := uint64(0)
	if s.peers != nil {
		rl, cur = s.peers.relay, s.peers.epoch()
	}
	if err := rl.Guard(w, r, cur, what); err != nil {
		writeJSON(w, http.StatusConflict, Response{Error: "service: " + err.Error()})
		return false
	}
	return true
}

// serveSchedule is the serving hot path. The fast path never touches JSON:
// the raw body bytes are hashed and looked up in the cache's byte index, so
// a repeated request costs one pooled body read, one SHA-256 and one Write
// of the pre-encoded response. Only requests that miss the byte index are
// decoded (decodeRequest: one pass over the pooled body) and served
// through the flight; a cold key owned by another replica is filled from
// the owner before this replica computes (peerFill). Every reply with
// encoded bytes — a run's miss reply, a canonical-index hit under a new
// byte spelling, a peer fill — is written as is and registers the body
// hash, so the next repeat stays on the fast path.
func (s *Server) serveSchedule(w http.ResponseWriter, r *http.Request, fromPeer bool) {
	buf, release, err := readBody(w, r)
	if err != nil {
		s.badRequest(w, err)
		return
	}
	defer release()
	accepted := func() {
		if fromPeer {
			s.peerFills.Add(1)
		} else {
			s.requests.Add(1)
		}
	}
	body := sha256.Sum256(buf.Bytes())
	if enc, ok := s.cache.getByBody(body); ok {
		accepted()
		s.hits.Add(1)
		s.bodyHits.Add(1)
		writeRaw(w, http.StatusOK, enc)
		return
	}

	var req Request
	if err := decodeRequest(buf.Bytes(), &req); err != nil {
		s.badRequest(w, err)
		return
	}
	accepted()
	model, err := req.normalize()
	if err != nil {
		s.badRequest(w, err)
		return
	}
	sum := CanonicalSum(&req)
	key := hex.EncodeToString(sum[:])
	resp, enc, stream := s.serveFlight(&req, sum, key, model, !fromPeer, buf.Bytes(), clientLane(r, &req))
	if stream != nil {
		// this request led a stream-marked fill: pipe the owner's body
		// straight to the client, no staging
		s.streamRelay(w, stream)
		return
	}
	if enc != nil {
		writeRaw(w, http.StatusOK, enc)
		s.cache.alias(key, body)
		return
	}
	s.writeResponse(w, resp.status(w), &resp)
}

// readBody reads one request body through the serving path's pooled-buffer,
// size-capped read: every body-carrying endpoint shares this path, so
// oversize and torn bodies get the same 400 text everywhere and
// steady-state requests reuse grown buffers. On success the caller must
// invoke release when done with the bytes; the error is the 400's text.
func readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, func(), error) {
	//schedlint:allow scratchpair — ownership transfers: the caller must invoke the returned release
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		bufPool.Put(buf)
		return nil, nil, fmt.Errorf("service: bad request body: %w", err)
	}
	return buf, func() { bufPool.Put(buf) }, nil
}

// decodeBody reads a body through readBody and decodes it with
// decodeStrict: the path of every body that is not a Request. The error,
// from either step, is the 400's text.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) error {
	buf, release, err := readBody(w, r)
	if err != nil {
		return err
	}
	defer release()
	return decodeStrict(buf.Bytes(), dst)
}

// badRequest answers 400 with err's text and counts the error.
func (s *Server) badRequest(w http.ResponseWriter, err error) {
	s.errors.Add(1)
	writeJSON(w, http.StatusBadRequest, Response{Error: err.Error()})
}

// peerFill is the requester side of the distributed cache: on a local miss
// for a key the ring assigns to another replica, relay the raw body to the
// owner's /cache/peer endpoint and serve its bytes verbatim — the owner
// computes at most once fleet-wide (its own singleflight coalesces
// concurrent fills) and the response is byte-identical to a single-replica
// answer. The fetched result is adopted into the local cache, so repeats on
// this replica become local byte-index hits; a stream-marked response is
// instead handed back as a reply for the caller to pipe through. The
// relay settles the owner's breaker (see its verdict table); ok=false
// always degrades to local compute.
func (s *Server) peerFill(ctx context.Context, sum [sha256.Size]byte, key string, raw []byte, tenant string) (Response, []byte, *relay.Reply, bool) {
	owner, isSelf, epoch, active := s.peers.owner(sum)
	if !active || isSelf {
		return Response{}, nil, nil, false
	}
	call := relay.Call{Peer: owner, Path: "/cache/peer", Body: raw, Epoch: epoch}
	if tenant != "" && tenant != defaultTenant {
		// forward the client's identity so the owner's admission charges
		// the real tenant, not one shared relay bucket
		call.Header = http.Header{}
		call.Header.Set(apiKeyHeader, tenant)
	}
	rep, err := s.peers.relay.Do(ctx, call)
	if err != nil {
		return Response{}, nil, nil, false
	}
	if rep.Header.Get(streamMarkHeader) != "" {
		// the owner streamed its encode: hand the open body to the caller,
		// whose copy settles the breaker
		return Response{}, nil, rep, false
	}
	var resp Response
	enc, err := rep.Read(func(b []byte) error {
		if err := json.Unmarshal(b, &resp); err != nil {
			return err
		}
		if resp.Error != "" {
			return errors.New(resp.Error)
		}
		return nil
	})
	if err != nil {
		// NOTHING may be cached from a torn, oversized or unclean body: a
		// truncated encoding must never become a byte-index entry
		return Response{}, nil, nil, false
	}
	s.peerHits.Add(1)
	stored := resp
	stored.Cached = false // stored form; get re-marks hits
	var hit []byte
	if !s.shouldStream(&stored) {
		_, hit = encodeEntry(stored)
	}
	s.cache.add(key, &stored, hit)
	return resp, enc, nil, true
}

// streamRelay pipes a stream-marked owner body straight through to the
// client — owner to requester to client wire with no staging — and the
// copy settles the owner's breaker. A body that breaks mid-stream aborts
// the client connection (panic(http.ErrAbortHandler) is net/http's
// sanctioned abort): the client must see a broken transfer, never a
// truncated body dressed up as a complete response.
func (s *Server) streamRelay(w http.ResponseWriter, rep *relay.Reply) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if rep.Stream(w) != nil {
		panic(http.ErrAbortHandler)
	}
	s.peerHits.Add(1)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var b Batch
	if err := decodeBody(w, r, &b); err != nil {
		s.badRequest(w, err)
		return
	}
	if len(b.Requests) == 0 {
		s.badRequest(w, errors.New("service: batch has no requests"))
		return
	}
	s.batches.Add(1)
	s.batchJobs.Add(int64(len(b.Requests)))
	out := s.runBatch(r.Context(), &b, tenantOf(r))
	est := 0
	for i := range out.Responses {
		est += out.Responses[i].estimateBytes()
	}
	if est > s.streamAt {
		streamJSON(w, http.StatusOK, &out)
		return
	}
	writeJSON(w, http.StatusOK, &out)
}

// handleHealthz is pure liveness: the process is up and serving HTTP.
// Restart decisions belong here; routing decisions belong to /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":       true,
		"uptime_s": time.Since(s.start).Seconds(),
	})
}

// handleReadyz is the routing probe: 200 only when sending this replica
// fresh traffic is useful. It reports 503 while draining (the replica is
// handing its sessions away and refusing opens), while session-journal
// recovery is still replaying (pinned clients would 404), and while the
// brownout ladder sits at its top level (every new cold run would only be
// shed). Liveness stays on /healthz — a not-ready replica must not be
// restarted, just skipped.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	reason := ""
	switch {
	case s.draining.Load():
		reason = "draining"
	case s.recovering.Load():
		reason = "recovering sessions"
	case s.admission != nil && s.admission.Level() >= admit.MaxBrownoutLevel:
		reason = "browned out"
	}
	if reason != "" {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": reason})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}

// Draining reports whether DrainSessions has begun shutting this replica
// down.
func (s *Server) Draining() bool { return s.draining.Load() }

// Stats is the counters snapshot served by GET /stats.
type Stats struct {
	UptimeS   float64 `json:"uptime_s"`
	PoolSize  int     `json:"pool_size"`
	Requests  int64   `json:"requests"`
	Batches   int64   `json:"batches"`
	BatchJobs int64   `json:"batch_jobs"`
	CacheHits int64   `json:"cache_hits"`
	// CacheBodyHits is the subset of CacheHits served straight from the
	// raw-body byte index (hash + Write, no JSON work at all).
	CacheBodyHits int64 `json:"cache_body_hits"`
	CacheMisses   int64 `json:"cache_misses"`
	// Coalesced counts requests that shared an identical in-flight
	// scheduler run instead of starting their own (singleflight); for N
	// concurrent identical cold requests it advances by N-1.
	Coalesced int64 `json:"coalesced"`
	CacheLen  int   `json:"cache_len"`
	CacheSize int   `json:"cache_size"`
	// Peers is the distinct replica count of the cache ring (0 when
	// running single-replica). PeerHits counts requests answered with
	// bytes fetched from the key's owner replica, PeerFills inbound fill
	// requests served for other replicas, and PeerErrors
	// replica-to-replica calls (cache fills, session imports, sweep ring
	// fills) that degraded for a peer-side reason: a Failure verdict or a
	// 503 shed.
	Peers      int   `json:"peers"`
	PeerHits   int64 `json:"peer_hits"`
	PeerFills  int64 `json:"peer_fills"`
	PeerErrors int64 `json:"peer_errors"`
	// RingEpoch is the membership epoch this replica is serving (0:
	// never joined a fleet), RingSwaps the number of live membership
	// swaps it has accepted, and PeerEpochSkew the number of relays —
	// inbound or outbound — rejected because the two sides held
	// different epochs (each one degraded to a local compute).
	RingEpoch     uint64 `json:"ring_epoch"`
	RingSwaps     int64  `json:"ring_swaps"`
	PeerEpochSkew int64  `json:"peer_epoch_skew"`
	// BreakersOpen is the number of peers currently being avoided or
	// probed, BreakerOpens the cumulative trip-open count, and
	// BreakerTrips the requests fast-failed by an open breaker.
	BreakersOpen int   `json:"breakers_open"`
	BreakerOpens int64 `json:"breaker_opens"`
	BreakerTrips int64 `json:"breaker_trips"`
	// SessionsOpen is the live scheduling-session count and SessionsBytes
	// the estimated state those sessions pin; SessionDeltas counts applied
	// delta batches, SessionEvictions idle sessions reclaimed past the
	// TTL, and SessionReplayedTasks the task placements replayed from a
	// previous run instead of being re-probed (the subsystem's saved work).
	SessionsOpen         int   `json:"sessions_open"`
	SessionsBytes        int64 `json:"sessions_bytes"`
	SessionDeltas        int64 `json:"session_deltas"`
	SessionEvictions     int64 `json:"session_evictions"`
	SessionReplayedTasks int64 `json:"session_replayed_tasks"`
	// SessionsRecovered counts sessions rebuilt from their write-ahead
	// journals after a restart, SessionRecoveryFailed journals whose
	// replay failed (left on disk), SessionsImported sessions accepted
	// from a draining peer, SessionsHandedOff sessions this replica
	// shipped to their ring owners on drain, and SessionRedirects session
	// requests answered 307 + X-Session-Owner because the id lives on
	// another replica. Draining is set once DrainSessions has begun.
	// Journal is the journal store's counters (nil with no journal).
	SessionsRecovered     int64          `json:"sessions_recovered"`
	SessionRecoveryFailed int64          `json:"session_recovery_failed"`
	SessionsImported      int64          `json:"sessions_imported"`
	SessionsHandedOff     int64          `json:"sessions_handed_off"`
	SessionRedirects      int64          `json:"session_redirects"`
	Draining              bool           `json:"draining"`
	Journal               *journal.Stats `json:"journal,omitempty"`
	// Timeouts counts runs aborted at Config.RequestTimeout (503s).
	Timeouts int64 `json:"timeouts"`
	// Shed counts requests refused by admission control before any pool
	// slot was taken (503 + computed Retry-After). Admission is the live
	// admission-queue state — brownout level, per-class queue depths and
	// admit/shed counters, drain rate, per-tenant accounting — and nil
	// when admission control is disabled.
	Shed      int64        `json:"shed"`
	Admission *admit.Stats `json:"admission,omitempty"`
	Errors    int64        `json:"errors"`
	InFlight  int64        `json:"in_flight"`
}

// StatsSnapshot returns the current counters.
func (s *Server) StatsSnapshot() Stats {
	peers := 0
	var ringEpoch uint64
	var ringSwaps int64
	var rc relay.Counters
	var brk breaker.Counters
	if s.peers != nil {
		st := s.peers.state.Load()
		if st.ring != nil {
			peers = st.ring.Size()
		}
		ringEpoch = st.epoch
		ringSwaps = s.peers.swaps.Load()
		rc = s.peers.relay.Counters()
		brk = s.peers.relay.Breakers().Stats(time.Now())
	}
	sess := s.sessions.StatsSnapshot()
	st := Stats{
		UptimeS:               time.Since(s.start).Seconds(),
		PoolSize:              s.cfg.PoolSize,
		Requests:              s.requests.Load(),
		Batches:               s.batches.Load(),
		BatchJobs:             s.batchJobs.Load(),
		CacheHits:             s.hits.Load(),
		CacheBodyHits:         s.bodyHits.Load(),
		CacheMisses:           s.misses.Load(),
		Coalesced:             s.coalesced.Load(),
		CacheLen:              s.cache.len(),
		CacheSize:             s.cfg.CacheSize,
		Peers:                 peers,
		PeerHits:              s.peerHits.Load(),
		PeerFills:             s.peerFills.Load(),
		PeerErrors:            rc.Failed,
		RingEpoch:             ringEpoch,
		RingSwaps:             ringSwaps,
		PeerEpochSkew:         rc.Skews,
		BreakersOpen:          brk.Open,
		BreakerOpens:          brk.Opens,
		BreakerTrips:          brk.Trips,
		SessionsOpen:          sess.Open,
		SessionsBytes:         sess.Bytes,
		SessionDeltas:         sess.Deltas,
		SessionEvictions:      sess.Evictions,
		SessionReplayedTasks:  sess.ReplayedTasks,
		SessionsRecovered:     sess.Recovered,
		SessionRecoveryFailed: sess.RecoveryFailed,
		SessionsImported:      sess.Imported,
		SessionsHandedOff:     sess.HandedOff,
		SessionRedirects:      s.sessionRedirects.Load(),
		Draining:              s.draining.Load(),
		Timeouts:              s.timeouts.Load(),
		Shed:                  s.shed.Load(),
		Errors:                s.errors.Load(),
		InFlight:              s.inFlight.Load(),
	}
	if s.cfg.SessionJournal != nil {
		js := s.cfg.SessionJournal.StatsSnapshot()
		st.Journal = &js
	}
	if s.admission != nil {
		as := s.admission.StatsSnapshot()
		st.Admission = &as
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.StatsSnapshot())
}

// RingOwner resolves a 32-byte key's owner under the current membership
// epoch, for subsystems that share the service's ring (the sweep worker's
// job cache). ok is false when the replica is single (nothing to forward
// to); the returned epoch must tag any relay made from this resolution.
func (s *Server) RingOwner(sum [sha256.Size]byte) (owner string, isSelf bool, epoch uint64, ok bool) {
	if s.peers == nil {
		return "", false, 0, false
	}
	return s.peers.owner(sum)
}

// RingEpoch returns the membership epoch this replica is serving (0:
// never joined a fleet).
func (s *Server) RingEpoch() uint64 {
	if s.peers == nil {
		return 0
	}
	return s.peers.epoch()
}

// Admission exposes the admission controller so in-process subsystems —
// the sweep worker surface — can gate their own traffic on the same
// slots and brownout ladder. nil when admission control is disabled.
func (s *Server) Admission() *admit.Controller { return s.admission }

// Relay exposes the replica's relay — its peer client, per-peer circuit
// breakers and outcome counts — so every replica-to-replica call in the
// process, the sweep worker's ring fills included, shares one view of each
// peer's health and counts into this replica's stats. nil when the
// replica has no identity.
func (s *Server) Relay() *relay.Relay {
	if s.peers == nil {
		return nil
	}
	return s.peers.relay
}

// estimateBytes conservatively estimates the encoded JSON size of a
// response from its event counts (a task event is ~70 bytes; a comm event
// carries a hop array), so the serving path can decide to stream without
// encoding first.
func (r *Response) estimateBytes() int {
	return 512 + 96*r.Tasks + 160*r.Comms
}

// shouldStream reports whether a response's estimated encoding is above the
// streaming threshold.
func (s *Server) shouldStream(resp *Response) bool {
	return resp.estimateBytes() > s.streamAt
}

// writeResponse writes one Response, streaming the encode straight to the
// ResponseWriter when its estimated size exceeds the threshold instead
// of staging the whole body in a pooled buffer. Streamed responses trade
// the encode-failure-to-500 conversion (headers are already out by then)
// for bounded memory on schedules whose JSON runs to many megabytes; such
// responses are also never attached to the encoded byte index, so the cache
// holds only their decoded form and repeats re-stream from it.
// Streamed bodies carry streamMarkHeader so a relaying replica knows to
// pipe them through rather than stage them.
func (s *Server) writeResponse(w http.ResponseWriter, status int, resp *Response) {
	if !s.shouldStream(resp) {
		writeJSON(w, status, resp)
		return
	}
	w.Header().Set(streamMarkHeader, "1")
	streamJSON(w, status, resp)
}

// bufPool recycles the request-body and response-encode buffers of the
// serving path, so steady-state requests reuse grown buffers instead of
// reallocating them per request.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON encodes into a pooled buffer before writing the status line, so
// a value that fails to encode becomes an honest 500 instead of a 200 with
// a truncated body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer bufPool.Put(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		http.Error(w, `{"error":"service: response not serializable"}`, http.StatusInternalServerError)
		return
	}
	writeRaw(w, status, buf.Bytes())
}

// streamJSON encodes directly to the wire: no staging buffer, no
// whole-body copy in memory.
func streamJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeRaw writes pre-encoded JSON bytes.
func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}
