package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"oneport/internal/platform"
	"oneport/internal/service/breaker"
	"oneport/internal/service/relay"
)

// maxShardBytes bounds worker-side shard payloads.
const maxShardBytes = 16 << 20

// Handler returns the worker-side HTTP surface of the sweep protocol:
//
//	POST /sweep/run  Shard -> ShardResult
//
// cmd/schedserve mounts it next to the scheduling service's handler when
// started with -worker.
func (wk *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sweep/run", wk.serveShard)
	return mux
}

func (wk *Worker) serveShard(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxShardBytes))
	dec.DisallowUnknownFields()
	var sh Shard
	if err := dec.Decode(&sh); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("sweep: bad shard: %w", err))
		return
	}
	if len(sh.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("sweep: empty shard"))
		return
	}
	local := r.Header.Get(sweepLocalHeader) != ""
	if local {
		// a ring fill from another worker: serve it only under the same
		// membership epoch it was routed by (the service's
		// no-cross-epoch-relay invariant), and never forward it again
		if err := wk.fleet.guard(w, r); err != nil {
			writeError(w, http.StatusConflict, fmt.Errorf("sweep: %w", err))
			return
		}
	}
	release, ok := wk.admitShard(w, r, sh.Jobs)
	if !ok {
		return // admitShard answered 503 + Retry-After
	}
	defer release()
	res, err := wk.runShard(r.Context(), &sh, !local)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(res)
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// Coordinator feeds jobs to worker processes with work-stealing dispatch
// and gathers the results. The zero value is unusable; set Workers to the
// workers' base URLs (e.g. "http://host:8642").
type Coordinator struct {
	Workers []string
	// Client defaults to a client with a generous sweep-scale timeout.
	Client *http.Client
	// Breakers keeps each worker's circuit breaker across runs (nil: a
	// fresh set per Run). Every dispatch goes through the relay, which
	// settles the worker's breaker with its outcome; a worker whose breaker
	// is open retires from the run without burning a round-trip.
	Breakers *breaker.Set

	// Stats describes the last Run: populated on return, read-only
	// afterwards. Not synchronized — one Run per Coordinator at a time.
	Stats RunStats
}

// RunStats summarizes one coordinator Run.
type RunStats struct {
	Chunks    int // dispatched units of work
	Requeues  int // chunks re-fed to the queue after a worker failure
	Backoffs  int // 503 overload responses absorbed by waiting and retrying
	CacheHits int // jobs the workers served from their result caches
	RingFills int // jobs the workers filled from their ring owners
}

func (c *Coordinator) client() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	return &http.Client{Timeout: 10 * time.Minute}
}

// wsChunk is one dispatchable unit of a work-stealing run: one job, so a
// worker that finishes early immediately pulls more work.
type wsChunk struct {
	jobs   []Job
	failed int // distinct workers this chunk has failed on
}

// wsRun is the shared state of one work-stealing Run.
type wsRun struct {
	mu      sync.Mutex
	queue   chan *wsChunk
	pending int  // chunks not yet completed
	live    int  // workers still pulling
	closed  bool // queue closed (done or fatal)
	err     error
	all     []Result
	stats   RunStats
}

// finish closes the queue exactly once; call with r.mu held.
func (r *wsRun) finish(err error) {
	if r.closed {
		return
	}
	r.closed = true
	r.err = err
	close(r.queue)
}

// Run feeds the jobs to the workers as they finish — work-stealing dispatch:
// every worker pulls the next chunk the moment it completes the last, so a
// fast worker takes more of the sweep and a slow one never holds jobs it
// has not started — and returns every job's result (order unspecified; the
// Merge* helpers sort by job id). pl selects the shard platform (nil: the
// paper platform).
//
// Failover: a chunk whose worker fails is requeued for the remaining
// workers and the failing worker retires from this run, so the sweep
// survives losing all but one worker mid-sweep; it fails only when a chunk
// has been rejected by every worker (equivalently: when every worker has
// retired). Requeued jobs are re-executed from their job description —
// results are pure functions of (job, platform) — so the merged output is
// byte-identical whatever the dispatch or failure interleaving.
func (c *Coordinator) Run(ctx context.Context, pl *platform.Platform, jobs []Job) ([]Result, error) {
	if len(c.Workers) == 0 {
		return nil, fmt.Errorf("sweep: coordinator has no workers")
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("sweep: no jobs")
	}
	chunks := make([]*wsChunk, len(jobs))
	for i := range jobs {
		chunks[i] = &wsChunk{jobs: jobs[i : i+1]}
	}
	brk := c.Breakers
	if brk == nil {
		brk = breaker.NewSet(breaker.Config{})
	}
	rl := relay.New(c.client(), brk)

	r := &wsRun{
		// every requeue retires a worker, so at most len(chunks) +
		// len(Workers) sends ever happen: the buffer makes requeues
		// non-blocking under the mutex
		queue:   make(chan *wsChunk, len(chunks)+len(c.Workers)),
		pending: len(chunks),
		live:    len(c.Workers),
	}
	r.stats.Chunks = len(chunks)
	for _, ch := range chunks {
		r.queue <- ch
	}

	var wg sync.WaitGroup
	for _, worker := range c.Workers {
		wg.Add(1)
		go func(worker string) {
			defer wg.Done()
			c.pullChunks(ctx, rl, worker, pl, r)
		}(worker)
	}
	wg.Wait()

	c.Stats = r.stats
	if r.err != nil {
		return nil, r.err
	}
	return r.all, nil
}

// pullChunks is one worker's dispatch loop: pull, post, collect; on failure
// requeue the chunk and retire. A 503 is not a failure: the worker is
// shedding load, so the chunk waits out the advertised Retry-After and
// retries the same worker (bounded by maxWorkerBackoffs) before falling
// back to the failover path.
func (c *Coordinator) pullChunks(ctx context.Context, rl *relay.Relay, worker string, pl *platform.Platform, r *wsRun) {
	for ch := range r.queue {
		sh := &Shard{Platform: pl, Jobs: ch.jobs}
		res, err := dispatch(ctx, rl, worker, sh)
		for backoffs := 0; err != nil && ctx.Err() == nil && backoffs < maxWorkerBackoffs; backoffs++ {
			var se *relay.StatusError
			if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
				break
			}
			r.mu.Lock()
			if r.closed {
				r.mu.Unlock()
				return
			}
			r.stats.Backoffs++
			r.mu.Unlock()
			select {
			case <-ctx.Done():
			case <-time.After(backoff(se.RetryAfter)):
			}
			res, err = dispatch(ctx, rl, worker, sh)
		}
		if err == nil {
			r.mu.Lock()
			r.all = append(r.all, res.Results...)
			r.stats.CacheHits += res.CacheHits
			r.stats.RingFills += res.RingFills
			r.pending--
			if r.pending == 0 {
				r.finish(nil)
			}
			r.mu.Unlock()
			continue
		}
		r.mu.Lock()
		if r.closed {
			// another worker already ended the run (fatal error or ctx
			// cancel); never send on the closed queue
			r.mu.Unlock()
			return
		}
		ch.failed++
		r.live--
		switch {
		case ctx.Err() != nil:
			r.finish(ctx.Err())
		case ch.failed >= len(c.Workers):
			r.finish(fmt.Errorf("sweep: chunk of %d jobs failed on every worker: %w", len(ch.jobs), err))
		case r.live == 0:
			r.finish(fmt.Errorf("sweep: every worker retired with %d chunks pending: %w", r.pending, err))
		default:
			r.stats.Requeues++
			r.queue <- ch // buffered; never blocks (see Run)
		}
		r.mu.Unlock()
		return // retire this worker for the rest of the run
	}
}

// dispatch posts one shard to a worker through the relay, which settles
// the worker's breaker (see its verdict table). A 503 comes back as a
// *relay.StatusError carrying the worker's Retry-After.
func dispatch(ctx context.Context, rl *relay.Relay, worker string, sh *Shard) (*ShardResult, error) {
	body, err := json.Marshal(sh)
	if err != nil {
		return nil, err
	}
	rep, err := rl.Do(ctx, relay.Call{Peer: worker, Path: "/sweep/run", Body: body})
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	var out *ShardResult
	if _, err := rep.Read(func(b []byte) (err error) {
		out, err = decodeResults(b, len(sh.Jobs))
		return err
	}); err != nil {
		return nil, fmt.Errorf("sweep: worker %s: bad response: %w", worker, err)
	}
	return out, nil
}

// decodeResults decodes a worker's answer, which must carry one result per
// job sent.
func decodeResults(b []byte, jobs int) (*ShardResult, error) {
	var out ShardResult
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, err
	}
	if len(out.Results) != jobs {
		return nil, fmt.Errorf("%d results for %d jobs", len(out.Results), jobs)
	}
	return &out, nil
}
