package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"oneport/internal/service/breaker"
	"oneport/internal/service/chaos"
)

// replicaPair builds two live replicas A and B (epoch 1, members {A,B}),
// with B's serving surface wrapped in the given chaos middleware and A's
// peer client in the given chaos transport (nil injectors leave a side
// untouched). Returns the servers and their base URLs.
func replicaPair(t *testing.T, serverSide, clientSide *chaos.Injector, tweak func(*Config)) (a, b *Server, aURL, bURL string) {
	t.Helper()
	var sA, sB atomic.Pointer[Server]
	tsA := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sA.Load().Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(tsA.Close)
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sB.Load().Handler().ServeHTTP(w, r)
	})
	var outer http.Handler = inner
	if serverSide != nil {
		outer = serverSide.Middleware(inner)
	}
	tsB := httptest.NewServer(outer)
	t.Cleanup(tsB.Close)

	members := []string{tsA.URL, tsB.URL}
	cfgA := Config{Self: tsA.URL, Peers: members}
	cfgB := Config{Self: tsB.URL, Peers: members}
	if clientSide != nil {
		cfgA.PeerClient = &http.Client{Transport: clientSide.Transport(nil), Timeout: 30 * time.Second}
	}
	if tweak != nil {
		tweak(&cfgA)
		tweak(&cfgB)
	}
	sA.Store(New(cfgA))
	sB.Store(New(cfgB))
	return sA.Load(), sB.Load(), tsA.URL, tsB.URL
}

// postURL posts a payload to a live replica over real HTTP.
func postURL(t *testing.T, url string, payload []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/schedule", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// pushRing posts a membership epoch to a replica's admin endpoint.
func pushRing(t *testing.T, url, token string, epoch uint64, members []string) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(map[string]any{"epoch": epoch, "members": members})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/ring", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestRingEpochSwapMidFlight is the no-split-brain pin: a relay routed
// under one membership epoch must never be served under another. The
// chaos hook swaps the owner's ring to epoch 2 after the requester has
// already routed (and tagged) its fill at epoch 1 — the owner rejects the
// cross-epoch relay, the requester degrades to a local compute with a
// byte-identical response, nobody's breaker trips, and once the new epoch
// reaches the requester too, fills flow again.
func TestRingEpochSwapMidFlight(t *testing.T) {
	inj := &chaos.Injector{}
	srvA, srvB, aURL, bURL := replicaPair(t, inj, nil, func(c *Config) { c.AdminToken = "sekrit" })
	members := []string{aURL, bURL}

	// the swap fires on B between A's epoch-1 routing and B's serving
	inj.Push(chaos.Fault{Mode: chaos.Hook, Do: func() {
		if _, _, err := srvB.peers.swap(2, members); err != nil {
			t.Errorf("mid-flight swap failed: %v", err)
		}
	}})

	payloads := ownedPayloads(t, aURL, bURL, 2)
	ref := New(Config{})
	refH := ref.Handler()
	_, want := postRaw(refH, payloads[0])

	code, body := postURL(t, aURL, payloads[0])
	if code != http.StatusOK {
		t.Fatalf("request across the swap answered %d: %s", code, body)
	}
	if !bytes.Equal(normElapsed(t, body), normElapsed(t, want)) {
		t.Fatal("cross-epoch degradation served a different schedule than single-replica compute")
	}
	stA, stB := srvA.StatsSnapshot(), srvB.StatsSnapshot()
	if stA.PeerEpochSkew != 1 || stA.PeerErrors != 0 || stA.CacheMisses != 1 {
		t.Fatalf("requester skew accounting off: %+v", stA)
	}
	if stA.BreakersOpen != 0 || stA.BreakerOpens != 0 {
		t.Fatalf("epoch skew tripped a breaker: %+v", stA)
	}
	if stB.PeerEpochSkew != 1 || stB.RingEpoch != 2 || stB.RingSwaps != 1 || stB.PeerFills != 0 {
		t.Fatalf("owner skew accounting off: %+v", stB)
	}

	// the admin push reaches A: same members, epoch 2 — fills flow again
	if code, body := pushRing(t, aURL, "sekrit", 2, members); code != http.StatusOK {
		t.Fatalf("epoch push to requester answered %d: %s", code, body)
	}
	_, want2 := postRaw(refH, payloads[1])
	code, body = postURL(t, aURL, payloads[1])
	if code != http.StatusOK || !bytes.Equal(normElapsed(t, body), normElapsed(t, want2)) {
		t.Fatalf("post-swap fill wrong: %d %s", code, body)
	}
	stA = srvA.StatsSnapshot()
	if stA.PeerHits != 1 || stA.RingEpoch != 2 || stA.RingSwaps != 1 {
		t.Fatalf("post-swap fill accounting off: %+v", stA)
	}
}

// TestBreakerHalfOpenRecovery drives one peer through the full breaker
// cycle at the service level: a chaos-injected 500 opens it (one failed
// round-trip), requests inside the backoff window fast-fail without
// touching the wire, and the first request past the window is the single
// half-open probe — which, finding the peer healthy again, closes the
// breaker and resumes fills.
func TestBreakerHalfOpenRecovery(t *testing.T) {
	inj := &chaos.Injector{}
	const window = 500 * time.Millisecond
	srvA, srvB, aURL, bURL := replicaPair(t, nil, inj, func(c *Config) {
		c.Breaker = breaker.Config{BaseDelay: window, MaxDelay: window, Jitter: -1}
	})
	payloads := ownedPayloads(t, aURL, bURL, 3)

	// 1: the synthesized 500 opens the breaker; the request degrades locally
	inj.Push(chaos.Fault{Mode: chaos.Status, Status: http.StatusInternalServerError})
	if code, body := postURL(t, aURL, payloads[0]); code != http.StatusOK || !bytes.Contains(body, []byte(`"schedule"`)) {
		t.Fatalf("request during 500 burst: %d %s", code, body)
	}
	st := srvA.StatsSnapshot()
	if st.PeerErrors != 1 || st.BreakerOpens != 1 || st.BreakersOpen != 1 {
		t.Fatalf("5xx did not open the breaker: %+v", st)
	}

	// 2: inside the window the fill fast-fails — the wire is never touched
	if code, _ := postURL(t, aURL, payloads[1]); code != http.StatusOK {
		t.Fatalf("request during open window answered %d", code)
	}
	st = srvA.StatsSnapshot()
	if st.BreakerTrips == 0 || st.PeerErrors != 1 {
		t.Fatalf("open breaker did not fast-fail: %+v", st)
	}
	if got := srvB.StatsSnapshot().PeerFills; got != 0 {
		t.Fatalf("owner saw %d fills while the breaker was open, want 0", got)
	}

	// 3: past the window, the half-open probe reaches the healthy owner
	// (the chaos queue is drained) and recovery is immediate
	time.Sleep(window + 200*time.Millisecond)
	code, body := postURL(t, aURL, payloads[2])
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"schedule"`)) {
		t.Fatalf("half-open probe request: %d %s", code, body)
	}
	st = srvA.StatsSnapshot()
	if st.PeerHits != 1 || st.BreakersOpen != 0 || st.BreakerOpens != 1 {
		t.Fatalf("probe did not close the breaker: %+v", st)
	}
	if got := srvB.StatsSnapshot().PeerFills; got != 1 {
		t.Fatalf("owner served %d fills after recovery, want 1", got)
	}
}

// TestTornPeerBodyNeverCached is the cache-integrity pin under torn
// transfers: a fill whose body dies mid-read must never leave truncated
// bytes anywhere — not in the served response, not in the result cache,
// not in the encoded byte index. The requester degrades to local compute
// and every response (first and repeat) is complete and byte-identical to
// the single-replica answer.
func TestTornPeerBodyNeverCached(t *testing.T) {
	inj := &chaos.Injector{}
	srvA, _, aURL, bURL := replicaPair(t, nil, inj, nil)
	payload := ownedPayloads(t, aURL, bURL, 1)[0]

	ref := New(Config{})
	refH := ref.Handler()
	_, want := postRaw(refH, payload)
	_, wantRepeat := postRaw(refH, payload)

	inj.Push(chaos.Fault{Mode: chaos.TornBody, Truncate: 16})
	code, body := postURL(t, aURL, payload)
	if code != http.StatusOK {
		t.Fatalf("request over torn fill answered %d: %s", code, body)
	}
	if !bytes.Equal(normElapsed(t, body), normElapsed(t, want)) {
		t.Fatal("torn fill leaked into the served response")
	}
	st := srvA.StatsSnapshot()
	if st.PeerErrors != 1 || st.PeerHits != 0 || st.CacheMisses != 1 {
		t.Fatalf("torn-body accounting off: %+v", st)
	}
	if inj.Intercepted() != 1 {
		t.Fatalf("chaos intercepted %d requests, want 1", inj.Intercepted())
	}

	// the repeat must come from the local cache, complete and identical —
	// never a truncated adoption
	code, body = postURL(t, aURL, payload)
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"cached":true`)) {
		t.Fatalf("repeat after torn fill not served locally: %d %s", code, body)
	}
	if !bytes.Equal(normElapsed(t, body), normElapsed(t, wantRepeat)) {
		t.Fatal("repeat after torn fill differs from the single-replica cache hit")
	}
}

// TestClientCancelNeverTripsBreaker: a fill aborted because OUR client
// hung up proves nothing about the peer — the breaker must stay closed
// (the half-open probe slot released without a verdict) and the very next
// request must try the peer again.
func TestClientCancelNeverTripsBreaker(t *testing.T) {
	release := make(chan struct{})
	var fills atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fills.Add(1)
		select {
		case <-release:
		case <-r.Context().Done():
		}
		w.WriteHeader(http.StatusNotFound) // after release: a 4xx, also breaker-neutral
	}))
	defer stub.Close()

	self := "http://self.example:8642"
	srv := New(Config{Self: self, Peers: []string{self, stub.URL}})
	var sp atomic.Pointer[Server]
	sp.Store(srv)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp.Load().Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	payloads := ownedPayloads(t, self, stub.URL, 2)

	// first request: the client gives up while the owner is still "thinking"
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/schedule", bytes.NewReader(payloads[0]))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("canceled client request unexpectedly completed")
	}
	close(release)

	// the abandoned handler finishes its local compute in the background;
	// wait for the fill attempt count to settle
	deadline := time.Now().Add(5 * time.Second)
	for fills.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("owner never saw the first fill")
		}
		time.Sleep(time.Millisecond)
	}

	// second request: the breaker must still be closed, so the owner is
	// asked again (and its 4xx still does not trip anything)
	code, body := postURL(t, ts.URL, payloads[1])
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"schedule"`)) {
		t.Fatalf("request after client cancel: %d %s", code, body)
	}
	deadline = time.Now().Add(5 * time.Second)
	for fills.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("owner saw %d fills, want 2 — the cancel tripped the breaker", fills.Load())
		}
		time.Sleep(time.Millisecond)
	}
	st := srv.StatsSnapshot()
	if st.BreakerOpens != 0 || st.BreakerTrips != 0 || st.PeerErrors != 0 {
		t.Fatalf("client cancel poisoned peer health: %+v", st)
	}
}

// TestRingAdminAuth pins the admin surface's gate: disabled without a
// token, constant-time bearer auth with one, monotonic epochs, idempotent
// replays, and conflict rejection.
func TestRingAdminAuth(t *testing.T) {
	members := []string{"http://a.example:1", "http://b.example:2"}

	// no token configured: the surface is disabled, not open
	bare := New(Config{Self: members[0], Peers: members})
	tsBare := httptest.NewServer(bare.Handler())
	defer tsBare.Close()
	if code, _ := pushRing(t, tsBare.URL, "anything", 2, members); code != http.StatusForbidden {
		t.Fatalf("tokenless replica accepted an admin push: %d", code)
	}

	srv := New(Config{Self: members[0], Peers: members, AdminToken: "sekrit"})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, _ := pushRing(t, ts.URL, "", 2, members); code != http.StatusUnauthorized {
		t.Fatalf("missing token accepted: %d", code)
	}
	if code, _ := pushRing(t, ts.URL, "wrong", 2, members); code != http.StatusUnauthorized {
		t.Fatalf("wrong token accepted: %d", code)
	}

	// valid push: epoch 2 installs
	code, body := pushRing(t, ts.URL, "sekrit", 2, members)
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"swapped":true`)) {
		t.Fatalf("valid push rejected: %d %s", code, body)
	}
	// idempotent replay: same epoch, same members — accepted, not a swap
	code, body = pushRing(t, ts.URL, "sekrit", 2, members)
	if code != http.StatusOK || bytes.Contains(body, []byte(`"swapped":true`)) {
		t.Fatalf("idempotent replay mishandled: %d %s", code, body)
	}
	// stale epoch and conflicting membership both 409
	if code, _ := pushRing(t, ts.URL, "sekrit", 1, members); code != http.StatusConflict {
		t.Fatalf("stale epoch accepted: %d", code)
	}
	if code, _ := pushRing(t, ts.URL, "sekrit", 2, members[:1]); code != http.StatusConflict {
		t.Fatalf("conflicting membership for the current epoch accepted: %d", code)
	}
	// malformed: epoch 0, empty members
	if code, _ := pushRing(t, ts.URL, "sekrit", 0, members); code != http.StatusBadRequest {
		t.Fatalf("epoch 0 accepted: %d", code)
	}
	if code, _ := pushRing(t, ts.URL, "sekrit", 3, nil); code != http.StatusBadRequest {
		t.Fatalf("empty membership accepted: %d", code)
	}

	st := srv.StatsSnapshot()
	if st.RingEpoch != 2 || st.RingSwaps != 1 {
		t.Fatalf("admin sequence left wrong ring state: %+v", st)
	}

	// GET /ring is admin-gated too and reports the installed epoch
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/ring", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated GET /ring answered %d", resp.StatusCode)
	}
	req.Header.Set("Authorization", "Bearer sekrit")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		Epoch   uint64   `json:"epoch"`
		Members []string `json:"members"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Epoch != 2 || len(info.Members) != 2 {
		t.Fatalf("GET /ring reported %+v", info)
	}
}

// TestRequestTimeout pins the per-request compute deadline: a run that
// exceeds Config.RequestTimeout is aborted at its next task commit and
// answered 503 with a Retry-After header, counted in Stats.Timeouts — and
// nothing of the aborted run is cached. The deadline is one only the
// hook's sleep exceeds: the retry computes LU-12 on the same server well
// within it, even race-instrumented on a loaded machine.
func TestRequestTimeout(t *testing.T) {
	const deadline = 500 * time.Millisecond
	srv := New(Config{RequestTimeout: deadline})
	srv.testHook = func(*Request) { time.Sleep(deadline + 50*time.Millisecond) } // outlive the deadline before the run starts
	handler := srv.Handler()
	payload := luPayload(t, 12)

	req := httptest.NewRequest(http.MethodPost, "/schedule", bytes.NewReader(payload))
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("timed-out run answered %d, want 503: %s", rec.Code, rec.Body.Bytes())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 carries no Retry-After")
	}
	var resp Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Error == "" {
		t.Fatalf("timeout body malformed (%v): %s", err, rec.Body.Bytes())
	}
	st := srv.StatsSnapshot()
	if st.Timeouts != 1 || st.Errors != 1 {
		t.Fatalf("timeout accounting off: %+v", st)
	}

	// nothing cached: the retry (hook removed) computes cleanly from cold
	srv.testHook = nil
	code, body := postRaw(handler, payload)
	if code != http.StatusOK || bytes.Contains(body, []byte(`"cached":true`)) {
		t.Fatalf("retry after timeout: %d %s", code, body)
	}
	if st := srv.StatsSnapshot(); st.Timeouts != 1 || st.CacheMisses != 2 {
		t.Fatalf("retry accounting off: %+v", st)
	}

	// a generous deadline never fires
	calm := New(Config{RequestTimeout: time.Hour})
	if code, body := postRaw(calm.Handler(), payload); code != http.StatusOK {
		t.Fatalf("generous deadline aborted the run: %d %s", code, body)
	}
}

// TestStreamedPeerRelay pins the end-to-end streaming relay: when the
// owner streams its encode (stream mark set), the requester pipes the
// bytes straight through to its client — no staging, no adoption — and
// repeats relay again rather than serving a truncated or stale copy.
func TestStreamedPeerRelay(t *testing.T) {
	srvA, srvB, aURL, bURL := replicaPair(t, nil, nil, nil)
	srvA.streamAt, srvB.streamAt = 1, 1
	payload := ownedPayloads(t, aURL, bURL, 1)[0]

	ref := New(Config{})
	ref.streamAt = 1
	refH := ref.Handler()
	_, want := postRaw(refH, payload)

	code, body := postURL(t, aURL, payload)
	if code != http.StatusOK {
		t.Fatalf("streamed relay answered %d: %s", code, body)
	}
	if !bytes.Equal(normElapsed(t, body), normElapsed(t, want)) {
		t.Fatal("streamed relay differs from single-replica output")
	}
	stA, stB := srvA.StatsSnapshot(), srvB.StatsSnapshot()
	if stA.PeerHits != 1 || stA.CacheMisses != 0 || stA.CacheLen != 0 {
		t.Fatalf("streamed relay accounting off (requester must not stage or adopt): %+v", stA)
	}
	if stB.PeerFills != 1 || stB.CacheMisses != 1 {
		t.Fatalf("owner fill accounting off: %+v", stB)
	}

	// the repeat relays again: the owner serves its canonical cache hit as
	// a fresh stream, and the requester still stages nothing
	_, wantRepeat := postRaw(refH, payload)
	code, body = postURL(t, aURL, payload)
	if code != http.StatusOK || !bytes.Equal(normElapsed(t, body), normElapsed(t, wantRepeat)) {
		t.Fatalf("repeated streamed relay wrong: %d %s", code, body)
	}
	stA = srvA.StatsSnapshot()
	if stA.PeerHits != 2 || stA.CacheLen != 0 {
		t.Fatalf("repeat relay accounting off: %+v", stA)
	}
	if fmt.Sprintf("%d", srvB.StatsSnapshot().CacheHits) == "0" {
		t.Fatal("owner recomputed instead of serving its cache")
	}
}
