package sweep

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"oneport/internal/platform"
	"oneport/internal/service"
	"oneport/internal/service/breaker"
	"oneport/internal/service/relay"
)

// fleetStub is a fake ring owner: it records the fill protocol headers and
// answers according to its mode — a canned result (recognizable Speedup no
// real run could produce), an epoch-skew 409, a 503 shed, a 500, or a
// dropped connection once and then the canned result.
type fleetStub struct {
	srv   *httptest.Server
	fills atomic.Int64
	mode  atomic.Value // "serve" | "skew" | "shed" | "boom" | "drop"
	local atomic.Value // last X-Sweep-Local header
	epoch atomic.Value // last X-Ring-Epoch header
}

const stubSpeedup = 42.5 // impossible for a real run (10 processors)

// stubFleet routes every job to the stub at epoch 7 and serves epoch 7.
func stubFleet(stub *fleetStub, rl *relay.Relay) *Fleet {
	return &Fleet{
		Owner: func([sha256.Size]byte) (string, bool, uint64, bool) { return stub.srv.URL, false, 7, true },
		Epoch: func() uint64 { return 7 },
		Relay: rl,
	}
}

func newFleetStub(t *testing.T) *fleetStub {
	t.Helper()
	st := &fleetStub{}
	st.mode.Store("serve")
	st.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st.fills.Add(1)
		st.local.Store(r.Header.Get(sweepLocalHeader))
		st.epoch.Store(r.Header.Get(relay.EpochHeader))
		if st.mode.CompareAndSwap("drop", "serve") {
			panic(http.ErrAbortHandler) // close the connection unanswered
		}
		switch st.mode.Load() {
		case "skew":
			w.WriteHeader(http.StatusConflict)
			return
		case "shed":
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		case "boom":
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		var sh Shard
		if err := json.NewDecoder(r.Body).Decode(&sh); err != nil || len(sh.Jobs) != 1 {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		res := Result{Job: sh.Jobs[0], Speedup: stubSpeedup, Comms: 7}
		_ = json.NewEncoder(w).Encode(&ShardResult{Results: []Result{res}})
	}))
	t.Cleanup(st.srv.Close)
	return st
}

// TestFleetRingFill drives the full fleet-fill protocol against a stub
// owner: a cold job owned elsewhere is filled from the owner (tagged with
// the local flag and the routing epoch) and adopted into the local cache;
// epoch skew and owner faults degrade to local compute with the right
// breaker verdicts; and an open breaker keeps later fills off the wire.
func TestFleetRingFill(t *testing.T) {
	stub := newFleetStub(t)
	brk := breaker.NewSet(breaker.Config{Jitter: -1})
	wk := NewWorker(stubFleet(stub, relay.New(nil, brk)), nil)

	job := func(b int) Job { return Job{Kind: KindBSweep, Testbed: "lu", Size: 20, Model: "oneport", B: b} }
	run := func(j Job) (*ShardResult, Result) {
		t.Helper()
		out, err := wk.RunShard(context.Background(), &Shard{Jobs: []Job{j}})
		if err != nil {
			t.Fatal(err)
		}
		if got := out.Results[0].Err; got != "" {
			t.Fatalf("job failed: %s", got)
		}
		return out, out.Results[0]
	}

	// cold job owned by the stub: filled, not computed
	out, res := run(job(4))
	if out.RingFills != 1 || res.Speedup != stubSpeedup {
		t.Fatalf("fill not adopted: ring_fills=%d speedup=%v", out.RingFills, res.Speedup)
	}
	if n := stub.fills.Load(); n != 1 {
		t.Fatalf("owner saw %d fills, want 1", n)
	}
	if stub.local.Load() != "1" || stub.epoch.Load() != "7" {
		t.Fatalf("fill protocol headers: local=%q epoch=%q, want 1/7", stub.local.Load(), stub.epoch.Load())
	}

	// the fill was adopted: the repeat is a local cache hit, no round-trip
	out, res = run(job(4))
	if out.CacheHits != 1 || out.RingFills != 0 || res.Speedup != stubSpeedup || stub.fills.Load() != 1 {
		t.Fatalf("adopted fill not cached: hits=%d fills=%d speedup=%v owner=%d",
			out.CacheHits, out.RingFills, res.Speedup, stub.fills.Load())
	}

	// epoch skew: the owner answers 409; the lane computes locally and the
	// breaker stays closed (a skewed peer is alive, not sick)
	stub.mode.Store("skew")
	out, res = run(job(5))
	if out.RingFills != 0 || res.Speedup == stubSpeedup {
		t.Fatalf("skewed fill was adopted: ring_fills=%d speedup=%v", out.RingFills, res.Speedup)
	}
	if got := brk.Get(stub.srv.URL).CurrentState(time.Now()); got != breaker.Closed {
		t.Fatalf("breaker %v after epoch skew, want closed", got)
	}

	// owner 5xx opens the breaker...
	stub.mode.Store("boom")
	if _, res = run(job(6)); res.Speedup == stubSpeedup {
		t.Fatal("5xx fill was adopted")
	}
	if got := brk.Get(stub.srv.URL).CurrentState(time.Now()); got != breaker.Open {
		t.Fatalf("breaker %v after owner 5xx, want open", got)
	}
	// ...so the next cold job computes locally without touching the wire
	before := stub.fills.Load()
	if _, res = run(job(7)); res.Speedup == stubSpeedup {
		t.Fatal("fill served through an open breaker")
	}
	if stub.fills.Load() != before {
		t.Fatalf("open breaker still sent a fill (owner saw %d, want %d)", stub.fills.Load(), before)
	}
}

// TestFleetFillShedKeepsBreakerClosed: an owner shedding load answers 503;
// the lane computes locally and the owner's breaker stays closed, because
// overload must never masquerade as peer death.
func TestFleetFillShedKeepsBreakerClosed(t *testing.T) {
	stub := newFleetStub(t)
	stub.mode.Store("shed")
	brk := breaker.NewSet(breaker.Config{Jitter: -1})
	wk := NewWorker(stubFleet(stub, relay.New(nil, brk)), nil)
	out, err := wk.RunShard(context.Background(), &Shard{Jobs: []Job{{Kind: KindBSweep, Testbed: "lu", Size: 20, Model: "oneport", B: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	if res := out.Results[0]; res.Err != "" || res.Speedup == stubSpeedup || out.RingFills != 0 {
		t.Fatalf("shed fill: err=%q speedup=%v ring_fills=%d, want a local compute", res.Err, res.Speedup, out.RingFills)
	}
	if stub.fills.Load() != 1 {
		t.Fatalf("owner saw %d fills, want 1", stub.fills.Load())
	}
	if got := brk.Get(stub.srv.URL).CurrentState(time.Now()); got != breaker.Closed {
		t.Fatalf("breaker %v after a 503 shed, want closed", got)
	}
}

// TestFleetInboundFillGuard pins the owner-side half of the protocol: a
// tagged fill is served only under the epoch it was routed by (409
// otherwise), and a served fill never forwards again, even when this
// worker's own ring would route the job elsewhere.
func TestFleetInboundFillGuard(t *testing.T) {
	// this worker's fleet routes everything to a stub that must never be hit
	stub := newFleetStub(t)
	rl := relay.New(nil, breaker.NewSet(breaker.Config{}))
	worker := httptest.NewServer(NewWorker(stubFleet(stub, rl), nil).Handler())
	t.Cleanup(worker.Close)

	post := func(epoch string) *http.Response {
		t.Helper()
		body, err := json.Marshal(&Shard{Jobs: []Job{{Kind: KindBSweep, Testbed: "lu", Size: 20, Model: "oneport", B: 4}}})
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, worker.URL+"/sweep/run", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(sweepLocalHeader, "1")
		req.Header.Set(relay.EpochHeader, epoch)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// wrong epoch: rejected before any job runs, current epoch echoed back
	resp := post("99")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cross-epoch fill answered %d, want 409", resp.StatusCode)
	}
	if got := resp.Header.Get(relay.EpochHeader); got != "7" {
		t.Fatalf("409 echoed epoch %q, want 7", got)
	}
	resp.Body.Close()
	if got := rl.Counters().Skews; got != 1 {
		t.Fatalf("receiver counted %d epoch skews, want 1", got)
	}

	// matching epoch: served locally — computed here, never re-forwarded
	resp = post(strconv.FormatUint(7, 10))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("matching-epoch fill answered %d, want 200", resp.StatusCode)
	}
	var out ShardResult
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out.Results[0].Err != "" {
		t.Fatalf("fill failed: %s", out.Results[0].Err)
	}
	if out.Results[0].Speedup == stubSpeedup || out.RingFills != 0 {
		t.Fatal("inbound fill was re-forwarded to this worker's own ring")
	}
	if stub.fills.Load() != 0 {
		t.Fatalf("stub owner saw %d fills from an inbound local shard, want 0", stub.fills.Load())
	}
}

// TestFleetFillRetriesTransportError: a fill whose connection drops before
// the answer is sent once more, and the owner's result is adopted.
func TestFleetFillRetriesTransportError(t *testing.T) {
	stub := newFleetStub(t)
	stub.mode.Store("drop")
	brk := breaker.NewSet(breaker.Config{Jitter: -1})
	wk := NewWorker(stubFleet(stub, relay.New(nil, brk)), nil)
	out, err := wk.RunShard(context.Background(), &Shard{Jobs: []Job{{Kind: KindBSweep, Testbed: "lu", Size: 20, Model: "oneport", B: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	if res := out.Results[0]; out.RingFills != 1 || res.Speedup != stubSpeedup {
		t.Fatalf("dropped fill not retried: ring_fills=%d speedup=%v", out.RingFills, res.Speedup)
	}
	if n := stub.fills.Load(); n != 2 {
		t.Fatalf("owner saw %d fill attempts, want 2", n)
	}
	if got := brk.Get(stub.srv.URL).CurrentState(time.Now()); got != breaker.Closed {
		t.Fatalf("breaker %v after a retried fill, want closed", got)
	}
}

// TestFleetFillCancelsWithShard: the shard request's context reaches its
// ring fills, so a client that hangs up mid-fill settles the owner's
// breaker as Cancel — no verdict about the owner. The fill runs as the
// half-open probe: Cancel releases the probe slot and leaves the breaker
// half-open, where Success would close it and Failure re-open it.
func TestFleetFillCancelsWithShard(t *testing.T) {
	arrived := make(chan struct{}, 1)
	release := make(chan struct{})
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		arrived <- struct{}{}
		<-release
		w.WriteHeader(http.StatusInternalServerError) // only a fill still waiting would see it
	}))
	defer owner.Close()
	brk := breaker.NewSet(breaker.Config{Jitter: -1, BaseDelay: time.Hour, MaxDelay: time.Hour})
	now := time.Now()
	brk.Allow(owner.URL, now)
	brk.Failure(owner.URL, now.Add(-2*time.Hour)) // open, window long elapsed: next Allow is the probe
	wk := NewWorker(&Fleet{
		Owner: func([sha256.Size]byte) (string, bool, uint64, bool) { return owner.URL, false, 7, true },
		Epoch: func() uint64 { return 7 },
		Relay: relay.New(nil, brk),
	}, nil)
	handled := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer close(handled)
		wk.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	defer close(release) // before ts.Close, which waits for the worker's handler

	body, err := json.Marshal(&Shard{Jobs: []Job{{Kind: KindBSweep, Testbed: "lu", Size: 20, Model: "oneport", B: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/sweep/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	sent := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		sent <- err
	}()
	<-arrived
	cancel()
	if err := <-sent; err == nil {
		t.Fatal("canceled shard request unexpectedly completed")
	}
	select {
	case <-handled:
	case <-time.After(10 * time.Second):
		t.Fatal("the worker kept waiting on its ring fill after the shard request was canceled")
	}
	if got := brk.Get(owner.URL).CurrentState(time.Now()); got != breaker.HalfOpen {
		t.Fatalf("breaker %v after a canceled fill, want half-open (settled as Cancel)", got)
	}
	if !brk.Allow(owner.URL, time.Now()) {
		t.Fatal("the canceled fill never released the half-open probe slot")
	}
}

// TestFleetFillEpochSkewCountedOnBothReplicas: two replicas, each a
// scheduling service with a sweep worker sharing its relay. When the
// owner has moved to a newer epoch, a ring fill routed at the old one is
// refused 409, computed locally, and counted in peer_epoch_skew on both.
func TestFleetFillEpochSkewCountedOnBothReplicas(t *testing.T) {
	var handlers [2]atomic.Value // http.Handler
	var urls [2]string
	for i := range urls {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handlers[i].Load().(http.Handler).ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	var srvs [2]*service.Server
	var workers [2]*Worker
	for i := range srvs {
		srvs[i] = service.New(service.Config{Self: urls[i], Peers: urls[:], AdminToken: "sekrit"})
		workers[i] = NewWorker(&Fleet{Owner: srvs[i].RingOwner, Epoch: srvs[i].RingEpoch, Relay: srvs[i].Relay()}, nil)
		mux := http.NewServeMux()
		mux.Handle("/", srvs[i].Handler())
		mux.Handle("/sweep/", workers[i].Handler())
		handlers[i].Store(http.Handler(mux))
	}

	// the owner moves to epoch 2; the requester still routes by epoch 1
	update, err := json.Marshal(map[string]any{"epoch": 2, "members": urls[:]})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, urls[1]+"/ring", bytes.NewReader(update))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer sekrit")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("epoch push answered %d", resp.StatusCode)
	}

	var job Job
	for b := 1; ; b++ {
		job = Job{Kind: KindBSweep, Testbed: "lu", Size: 20, Model: "oneport", B: b}
		if owner, _, _, ok := srvs[0].RingOwner(jobKey(job, platform.Paper())); ok && owner == urls[1] {
			break
		}
		if b == 64 {
			t.Fatal("no job hashed to the second replica — placement hash changed?")
		}
	}
	out, err := workers[0].RunShard(context.Background(), &Shard{Jobs: []Job{job}})
	if err != nil {
		t.Fatal(err)
	}
	if res := out.Results[0]; res.Err != "" || out.RingFills != 0 {
		t.Fatalf("skewed fill: err=%q ring_fills=%d, want a local compute", res.Err, out.RingFills)
	}
	for i, srv := range srvs {
		st := srv.StatsSnapshot()
		if st.PeerEpochSkew != 1 || st.BreakerOpens != 0 {
			t.Fatalf("replica %d: peer_epoch_skew=%d breaker_opens=%d, want 1 and 0", i, st.PeerEpochSkew, st.BreakerOpens)
		}
	}
}
