package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"oneport/internal/cli"
	"oneport/internal/heuristics"
	"oneport/internal/sched"
	"oneport/internal/service"
)

// startPoint records a set-up point of st: it starts schedserve with args
// st.rounds times, each timed from exec to ready, kills every start but
// the last and returns that one.
func (h *harness) startPoint(ctx context.Context, st *setupTimes, args ...string) (*server, error) {
	var srv *server
	err := st.point(func() (time.Duration, error) {
		if srv != nil {
			srv.kill()
		}
		s, d, err := h.c.startServer(ctx, h.schedserve, args...)
		srv = s
		return d, err
	})
	if err != nil {
		if srv != nil {
			srv.kill()
		}
		return nil, err
	}
	return srv, nil
}

// sparePoint returns a set-up point of st that starts spare servers with
// args and kills them, leaving the workload's own server alone.
func (h *harness) sparePoint(ctx context.Context, st *setupTimes, args ...string) func() error {
	return func() error {
		s, err := h.startPoint(ctx, st, args...)
		if err == nil {
			s.kill()
		}
		return err
	}
}

// measureHTTP runs a workload's phases with op: an unmeasured warm-up and
// a measured open loop at rate, then a measured closed loop of at most max
// operations, with name the span of one operation. warmed, if not nil,
// runs after the warm-up. point records a set-up point; it runs after the
// warm-up, in the middle and at the end of the open loop, and after the
// closed loop, while the server is idle. The open loop's halves are
// returned as one phase.
func (h *harness) measureHTTP(rng *rand.Rand, rate float64, max int, name string, op opFunc, next *int, warmed, point func() error) (open, closed phase, err error) {
	h.tally(openLoop(rng, rate, h.warmDur(), nil, "", op), next)
	if warmed != nil {
		if err := warmed(); err != nil {
			return open, closed, err
		}
	}
	if err := point(); err != nil {
		return open, closed, err
	}
	for i := 0; i < 2; i++ {
		half := h.tally(openLoop(rng, rate, h.openDur()/2, h.tr, name, op), next)
		open.samples = append(open.samples, half.samples...)
		open.late = append(open.late, half.late...)
		if err := point(); err != nil {
			return open, closed, err
		}
	}
	closed = h.tally(closedLoop(h.closedDur(), max-*next, h.tr, name, op), next)
	return open, closed, point()
}

// worker is one client connection and its reusable buffers.
type worker struct {
	conn clientConn
	body []byte       // request body being spliced
	resp bytes.Buffer // last response body
}

// newWorkers returns conns workers connecting to srv; close them when done.
func newWorkers(srv *server) []worker {
	ws := make([]worker, conns)
	for i := range ws {
		ws[i].conn.addr = srv.addr
	}
	return ws
}

func closeWorkers(ws []worker) {
	for i := range ws {
		ws[i].conn.close()
	}
}

// jsonNumber reads the number after the first "key": in the first 512
// bytes of a response: the scalar fields of service.Response and
// SessionResponse all precede the schedule, so no full decode is needed.
func jsonNumber(body []byte, key string) (float64, bool) {
	if len(body) > 512 {
		body = body[:512]
	}
	at := bytes.Index(body, []byte(`"`+key+`":`))
	if at < 0 {
		return 0, false
	}
	rest := body[at+len(key)+3:]
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(rest[:end]), 64)
	return v, err == nil
}

// httpResult reports one measured HTTP workload: open-loop latencies,
// closed-loop capacity, peak server memory.
func (h *harness) httpResult(srv *server, open, closed phase) error {
	h.latencies("open-loop requests", open, sample.latency, open.late)
	ops, tasks := closed.bestThroughput(conns)
	h.notef("closed loop: %d requests in %.2fs, raw %.1f requests/s", len(closed.samples), closed.elapsed.Seconds(),
		float64(len(closed.samples)-closed.failed())/closed.elapsed.Seconds())
	h.set("capacity_rps", ops, "1/s")
	h.set("tasks_per_s", tasks, "1/s")
	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	h.set("peak_rss_mb", rss, "MB")
	return nil
}

// statsDelta returns the request counters /stats gained from before to
// after.
func statsDelta(before, after service.Stats) service.Stats {
	return service.Stats{
		Requests:      after.Requests - before.Requests,
		CacheHits:     after.CacheHits - before.CacheHits,
		CacheBodyHits: after.CacheBodyHits - before.CacheBodyHits,
		CacheMisses:   after.CacheMisses - before.CacheMisses,
		Coalesced:     after.Coalesced - before.Coalesced,
		Errors:        after.Errors - before.Errors,
	}
}

// reconcile checks /stats counter deltas against what the client sent:
// every request accepted, and each one counted once as a hit, a miss or a
// coalesced follower.
func (h *harness) reconcile(d service.Stats, sent int) {
	if d.Requests != int64(sent) {
		h.fail("/stats counted %d requests, the client sent %d", d.Requests, sent)
	}
	if d.CacheHits+d.CacheMisses+d.Coalesced != d.Requests {
		h.fail("/stats hits %d + misses %d + coalesced %d != requests %d", d.CacheHits, d.CacheMisses, d.Coalesced, d.Requests)
	}
	if d.Errors != 0 {
		h.fail("/stats counted %d errors", d.Errors)
	}
}

// runColdMix is the cold-request workload: every request is a distinct
// scheduling problem (a template with a unique spliced weight), so each
// one is decoded, keyed, scheduled, validated, encoded and inserted into
// the LRU, evicting once it is full. Codec and scheduler costs are about
// equal here.
func runColdMix(ctx context.Context, h *harness) error {
	const rate = 150.0
	rng := rand.New(rand.NewSource(h.seed))
	tpls, err := coldMixTemplates(rng)
	if err != nil {
		return err
	}
	// request n uses template order[n]: each block of len(tpls) requests
	// holds every template once, in seeded order; 1 in 10 is re-checked
	const maxReqs = 200_000
	order := make([]int, 0, maxReqs)
	for len(order) < maxReqs {
		order = append(order, rng.Perm(len(tpls))...)
	}
	order = order[:maxReqs]
	sampled := make([]bool, maxReqs)
	for n := range sampled {
		sampled[n] = rng.Intn(10) == 0
	}

	st := &setupTimes{what: "server starts", rounds: setupRounds}
	srv, err := h.startPoint(ctx, st, "-pool", "2")
	if err != nil {
		return err
	}
	defer srv.kill()
	before, err := srv.stats()
	if err != nil {
		return err
	}

	workers := newWorkers(srv)
	defer closeWorkers(workers)
	var mu sync.Mutex
	kept := map[int][]byte{} // sampled request number -> response body
	next := 0                // first request number of the phase being run
	op := func(w, i int) outcome {
		n := next + i
		if n >= maxReqs {
			return outcome{}
		}
		wk := &workers[w]
		t := tpls[order[n]]
		wk.body = t.splice(wk.body, n)
		if err := wk.conn.post("/schedule", wk.body, &wk.resp); err != nil {
			h.fail("cold-mix request %d (%s): %v", n, t.name, err)
			return outcome{}
		}
		if sampled[n] {
			mu.Lock()
			kept[n] = bytes.Clone(wk.resp.Bytes())
			mu.Unlock()
		}
		return outcome{class: order[n], tasks: t.req.Graph.NumNodes(), ok: true}
	}
	open, closed, err := h.measureHTTP(rng, rate, maxReqs, "http.schedule", op, &next, nil, h.sparePoint(ctx, st, "-pool", "2"))
	if err != nil {
		return err
	}
	if next >= maxReqs {
		h.fail("cold-mix ran out of distinct requests")
	}
	h.setup(st)
	if err := h.httpResult(srv, open, closed); err != nil {
		return err
	}
	after, err := srv.stats()
	if err != nil {
		return err
	}
	d := statsDelta(before, after)
	h.reconcile(d, next)
	if d.CacheHits != 0 {
		h.fail("cold-mix: %d cache hits, want 0 (every request is distinct)", d.CacheHits)
	}

	// recompute the sampled requests in-process
	for n, resp := range kept {
		h.checkCold(tpls[order[n]], n, resp)
	}
	h.notef("cold-mix: %d requests, %d re-checked in-process", next, len(kept))
	return nil
}

// checkCold recomputes cold-mix request n in-process and compares it with
// the response the server gave: same makespan and comm count, and the
// returned schedule must be valid.
func (h *harness) checkCold(t *template, n int, body []byte) {
	var req service.Request
	dec := json.NewDecoder(bytes.NewReader(t.splice(nil, n)))
	dec.DisallowUnknownFields()
	var resp service.Response
	err := dec.Decode(&req)
	if err == nil {
		err = json.Unmarshal(body, &resp)
	}
	var model sched.Model
	if err == nil {
		model, err = cli.ParseModel(req.Model)
	}
	var fn heuristics.Func
	if err == nil {
		// the server runs at its default probe parallelism of 1
		fn, err = heuristics.ByNameTuned(req.Heuristic, heuristics.ILHAOptions{B: req.Options.B, ScanDepth: req.Options.ScanDepth},
			&heuristics.Tuning{ProbeParallelism: 1})
	}
	var s *sched.Schedule
	if err == nil {
		s, err = fn(req.Graph, req.Platform, model)
	}
	if err == nil && resp.Schedule == nil {
		err = fmt.Errorf("response has no schedule")
	}
	if err == nil {
		err = sched.Validate(req.Graph, req.Platform, resp.Schedule, model)
	}
	if err != nil {
		h.fail("cold-mix request %d (%s): %v", n, t.name, err)
		return
	}
	if math.Float64bits(s.Makespan()) != math.Float64bits(resp.Makespan) || s.CommCount() != resp.Comms {
		h.fail("cold-mix request %d (%s): served makespan %v comms %d, in-process %v comms %d",
			n, t.name, resp.Makespan, resp.Comms, s.Makespan(), s.CommCount())
	}
}

// runHotZipf is the cache workload: requests follow Zipf(1.1) over a
// catalogue of twice the cache size. 80 % are sent in the catalogue's
// exact bytes (byte-index hits once cached), 20 % re-spelled so only the
// canonical key matches (decode and key, no scheduling). The tail misses
// and evicts. Scheduling is a small share, so a kernel change should not
// show here.
func runHotZipf(ctx context.Context, h *harness) error {
	const rate = 1000.0
	const maxReqs = 400_000
	rng := rand.New(rand.NewSource(h.seed))
	cat, entry, respell, err := hotZipfRequests(rng, maxReqs)
	if err != nil {
		return err
	}

	st := &setupTimes{what: "server starts", rounds: setupRounds}
	srv, err := h.startPoint(ctx, st, "-pool", "2")
	if err != nil {
		return err
	}
	defer srv.kill()
	before, err := srv.stats()
	if err != nil {
		return err
	}

	workers := newWorkers(srv)
	defer closeWorkers(workers)
	makespans := make([]atomic.Uint64, catalogueSize) // float bits of the first answer; 0 = none yet
	next := 0
	op := func(w, i int) outcome {
		n := next + i
		if n >= maxReqs {
			return outcome{}
		}
		wk := &workers[w]
		e := &cat[entry[n]]
		body := e.exact
		if respell[n] {
			wk.body = e.respelled(wk.body, n)
			body = wk.body
		}
		if err := wk.conn.post("/schedule", body, &wk.resp); err != nil {
			h.fail("hot-zipf request %d (entry %d): %v", n, entry[n], err)
			return outcome{}
		}
		v, ok := jsonNumber(wk.resp.Bytes(), "makespan")
		if !ok || v <= 0 {
			h.fail("hot-zipf request %d: no makespan in the response", n)
			return outcome{}
		}
		bits := math.Float64bits(v)
		if !makespans[entry[n]].CompareAndSwap(0, bits) && makespans[entry[n]].Load() != bits {
			h.fail("hot-zipf entry %d: makespan %v, earlier answers said %v", entry[n], v, math.Float64frombits(makespans[entry[n]].Load()))
			return outcome{}
		}
		// a class is one template in one spelling, served from the cache
		// or computed
		class := e.template * 4
		if respell[n] {
			class += 2
		}
		if bytes.Contains(wk.resp.Bytes()[:min(wk.resp.Len(), 512)], []byte(`"cached":true`)) {
			class++
		}
		return outcome{class: class, tasks: e.tasks, ok: true}
	}
	var mid service.Stats
	warmed := func() (err error) {
		mid, err = srv.stats()
		return err
	}
	open, closed, err := h.measureHTTP(rng, rate, maxReqs, "http.schedule", op, &next, warmed, h.sparePoint(ctx, st, "-pool", "2"))
	if err != nil {
		return err
	}
	if next >= maxReqs {
		h.fail("hot-zipf ran out of pre-drawn requests")
	}
	h.setup(st)
	if err := h.httpResult(srv, open, closed); err != nil {
		return err
	}
	after, err := srv.stats()
	if err != nil {
		return err
	}
	h.reconcile(statsDelta(before, after), next)
	d := statsDelta(mid, after)
	h.notef("hot-zipf: measured %d requests: %.1f%% byte-index hits, %.1f%% canonical hits, %.1f%% misses",
		d.Requests, 100*float64(d.CacheBodyHits)/float64(d.Requests),
		100*float64(d.CacheHits-d.CacheBodyHits)/float64(d.Requests), 100*float64(d.CacheMisses)/float64(d.Requests))
	return nil
}

// hotZipfRequests draws the hot-zipf catalogue and n requests: request k
// asks for catalogue entry entry[k], re-spelled when respell[k].
func hotZipfRequests(rng *rand.Rand, n int) (cat []catalogueEntry, entry []int32, respell []bool, err error) {
	if cat, err = hotZipfCatalogue(rng); err != nil {
		return nil, nil, nil, err
	}
	entry = make([]int32, n)
	respell = make([]bool, n)
	zipf := rand.NewZipf(rng, 1.1, 1, catalogueSize-1)
	for k := range entry {
		entry[k] = int32(zipf.Uint64())
		respell[k] = rng.Intn(5) == 0
	}
	return cat, entry, respell, nil
}
