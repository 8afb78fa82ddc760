package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oneport/internal/platform"
	"oneport/internal/service/ring"
	"oneport/internal/testbeds"
)

func luPayload(t *testing.T, n int) []byte {
	t.Helper()
	payload, err := json.Marshal(Request{
		Graph: testbeds.LU(n, 10), Platform: platform.Paper(), Heuristic: "heft",
	})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestPanicRecovery pins the panic-hardened compute path: a panicking
// heuristic must become a 500 response — never a process crash —
// the pooled Scratch must flow back (the pool stays usable), and the fault
// must count in errors. Panics cannot be reached through valid inputs, so
// the test injects one via the compute hook.
func TestPanicRecovery(t *testing.T) {
	srv := New(Config{PoolSize: 1})
	handler := srv.Handler()
	payload := luPayload(t, 10)

	srv.testHook = func(*Request) { panic("injected fault") }
	code, body := postRaw(handler, payload)
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking run answered %d, want 500: %s", code, body)
	}
	var resp Response
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("500 body not JSON (%v): %s", err, body)
	}
	if !strings.Contains(resp.Error, "injected fault") {
		t.Fatalf("fault response hides the panic: %+v", resp)
	}
	if st := srv.StatsSnapshot(); st.Errors != 1 {
		t.Fatalf("panic not counted in errors: %+v", st)
	}

	// the failed run must not poison the pool or the cache: the same
	// request now computes cleanly, and its repeat is a cache hit
	srv.testHook = nil
	code, body = postRaw(handler, payload)
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"schedule"`)) {
		t.Fatalf("post-panic request failed: %d %s", code, body)
	}
	code, body = postRaw(handler, payload)
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"cached":true`)) {
		t.Fatalf("post-panic repeat not a cache hit: %d %s", code, body)
	}
}

// TestProbeParallelismKeepsSchedule pins the request option
// probe_parallelism, which the server accepts and ignores: a request that
// carries a positive or a huge value answers the same bytes (elapsed_ns
// aside) as the same request without it, under the same cache key, and a
// negative value is a 400 naming the option. STENCIL-30 DLS on the paper
// platform under one-port is an instance where DLS once picked another
// schedule at probe parallelism 1.
func TestProbeParallelismKeepsSchedule(t *testing.T) {
	base := Request{
		Graph: testbeds.Stencil(30, 10), Platform: platform.Paper(), Heuristic: "dls", Model: "oneport",
	}
	post := func(req Request) (int, []byte) {
		t.Helper()
		payload, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		// a fresh server, so every answer is computed, not a cache hit
		return postRaw(New(Config{}).Handler(), payload)
	}
	code, body := post(base)
	if code != http.StatusOK {
		t.Fatalf("plain request answered %d: %s", code, body)
	}
	want := normElapsed(t, body)
	for _, par := range []int{1, 2, 1 << 30} {
		req := base
		req.Options.ProbeParallelism = par
		code, body := post(req)
		if code != http.StatusOK {
			t.Fatalf("probe_parallelism %d answered %d: %s", par, code, body)
		}
		if !bytes.Equal(normElapsed(t, body), want) {
			t.Fatalf("probe_parallelism %d changed the answer", par)
		}
		if CanonicalKey(&req) != CanonicalKey(&base) {
			t.Fatalf("probe_parallelism %d changed the cache key", par)
		}
	}
	neg := base
	neg.Options.ProbeParallelism = -1
	if code, body := post(neg); code != http.StatusBadRequest || !bytes.Contains(body, []byte("probe_parallelism")) {
		t.Fatalf("negative probe_parallelism answered %d: %s", code, body)
	}
}

// TestSingleflightColdRequests pins the coalescing contract: N concurrent
// identical cold requests run the scheduler exactly once and all N callers
// receive identical responses (run under -race in CI). The compute hook
// holds the leader until every follower is counted waiting, so the test is
// deterministic rather than timing-dependent.
func TestSingleflightColdRequests(t *testing.T) {
	srv := New(Config{PoolSize: 2})
	handler := srv.Handler()
	gate := make(chan struct{})
	var computes atomic.Int64
	srv.testHook = func(*Request) {
		computes.Add(1)
		<-gate
	}

	const n = 8
	payload := luPayload(t, 12)
	codes := make([]int, n)
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], bodies[i] = postRaw(handler, payload)
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.StatsSnapshot().Coalesced != n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("followers never coalesced: %+v", srv.StatsSnapshot())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("scheduler ran %d times for %d identical requests", got, n)
	}
	st := srv.StatsSnapshot()
	if st.CacheMisses != 1 || st.Coalesced != n-1 || st.CacheHits != 0 {
		t.Fatalf("flight accounting off: %+v", st)
	}
	var first Response
	if err := json.Unmarshal(bodies[0], &first); err != nil || codes[0] != http.StatusOK || first.Error != "" || first.Schedule == nil {
		t.Fatalf("leader response invalid: %d %s", codes[0], bodies[0])
	}
	for i := 1; i < n; i++ {
		if codes[i] != codes[0] || !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("caller %d received a different response", i)
		}
	}
}

// normElapsed zeroes the one legitimately run-dependent field so responses
// from different processes can be compared byte-for-byte.
func normElapsed(t *testing.T, body []byte) []byte {
	t.Helper()
	var r Response
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("response not JSON (%v): %s", err, body)
	}
	r.ElapsedNs = 0
	out, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTwoReplicaDistributedCache is the ring determinism pin: a two-replica
// fleet must serve a request computed on one replica from the other without
// recomputing (peer fill), with responses byte-identical across replicas
// and — modulo the measured ElapsedNs — identical to single-replica output.
// The assertions hold whichever replica the ring makes the key's owner.
func TestTwoReplicaDistributedCache(t *testing.T) {
	var sA, sB atomic.Pointer[Server]
	tsA := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sA.Load().Handler().ServeHTTP(w, r)
	}))
	defer tsA.Close()
	tsB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sB.Load().Handler().ServeHTTP(w, r)
	}))
	defer tsB.Close()
	members := []string{tsA.URL, tsB.URL}
	sA.Store(New(Config{Self: tsA.URL, Peers: members}))
	sB.Store(New(Config{Self: tsB.URL, Peers: members}))

	// single-replica reference: the fresh and the repeat response
	ref := New(Config{})
	refH := ref.Handler()
	payload := luPayload(t, 12)
	_, refFresh := postRaw(refH, payload)
	_, refRepeat := postRaw(refH, payload)

	post := func(ts *httptest.Server) []byte {
		t.Helper()
		resp, err := http.Post(ts.URL+"/schedule", "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		return body
	}

	first := post(tsA)  // computes — locally or, when B owns the key, via fill
	second := post(tsB) // must reuse the first compute, never re-run it
	third := post(tsA)  // repeat on A: a local byte-index hit either way

	if !bytes.Equal(normElapsed(t, first), normElapsed(t, refFresh)) {
		t.Fatal("first fleet response differs from single-replica fresh output")
	}
	if !bytes.Equal(normElapsed(t, second), normElapsed(t, refRepeat)) {
		t.Fatal("second fleet response differs from single-replica repeat output")
	}
	// within the fleet the repeat bytes are strictly identical: one compute,
	// one encoded form, whichever replica serves it
	if !bytes.Equal(second, third) {
		t.Fatalf("replicas served different repeat bytes:\n%s\nvs\n%s", second, third)
	}

	stA, stB := sA.Load().StatsSnapshot(), sB.Load().StatsSnapshot()
	if stA.Peers != 2 || stB.Peers != 2 {
		t.Fatalf("ring size wrong: %d, %d", stA.Peers, stB.Peers)
	}
	if got := stA.CacheMisses + stB.CacheMisses; got != 1 {
		t.Fatalf("scheduler ran %d times across the fleet, want 1 (%+v / %+v)", got, stA, stB)
	}
	if got := stA.PeerHits + stB.PeerHits; got != 1 {
		t.Fatalf("peer hits = %d, want 1 (%+v / %+v)", got, stA, stB)
	}
	if got := stA.PeerFills + stB.PeerFills; got != 1 {
		t.Fatalf("peer fills = %d, want 1 (%+v / %+v)", got, stA, stB)
	}
	if got := stA.CacheBodyHits + stB.CacheBodyHits; got < 1 {
		t.Fatalf("no repeat rode the byte index (%+v / %+v)", stA, stB)
	}
	// peer-internal traffic never counts as client requests
	if stA.Requests+stB.Requests != 3 {
		t.Fatalf("client request count off: %+v / %+v", stA, stB)
	}
}

// TestPeerDownDegradesToLocal: a replica whose owner peer is unreachable
// must compute locally (one failed round-trip, then a served request),
// count the degradation, and serve repeats from its local cache without
// re-probing the dead peer.
func TestPeerDownDegradesToLocal(t *testing.T) {
	self := "http://self.example:8642"
	dead := "http://127.0.0.1:9" // discard port: connection refused fast
	srv := New(Config{
		Self: self, Peers: []string{self, dead},
		PeerClient: &http.Client{Timeout: 2 * time.Second},
	})
	handler := srv.Handler()

	// find a request whose canonical key the ring assigns to the dead peer
	r := ring.New([]string{self, dead}, 0)
	var payload []byte
	for n := 8; n <= 60; n++ {
		req := Request{Graph: testbeds.LU(n, 10), Platform: platform.Paper(), Heuristic: "heft"}
		if _, err := req.normalize(); err != nil {
			t.Fatal(err)
		}
		if r.Owner(CanonicalSum(&req)) == dead {
			var err error
			if payload, err = json.Marshal(req); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if payload == nil {
		t.Fatal("no LU size hashed to the dead peer — placement hash changed?")
	}

	code, body := postRaw(handler, payload)
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"schedule"`)) {
		t.Fatalf("degraded request failed: %d %s", code, body)
	}
	st := srv.StatsSnapshot()
	if st.PeerErrors != 1 || st.PeerHits != 0 || st.CacheMisses != 1 {
		t.Fatalf("degradation accounting off: %+v", st)
	}
	// the repeat is a local byte-index hit: no second probe of the dead peer
	code, body = postRaw(handler, payload)
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"cached":true`)) {
		t.Fatalf("degraded repeat not served locally: %d %s", code, body)
	}
	if st := srv.StatsSnapshot(); st.PeerErrors != 1 {
		t.Fatalf("repeat re-probed the dead peer: %+v", st)
	}
}

// TestStreamedResponses: above the size threshold the server encodes
// straight to the wire and deliberately skips the encoded byte index —
// repeats hit the canonical cache and stream again, so multi-megabyte
// bodies are never held in pooled buffers or duplicated into the cache.
func TestStreamedResponses(t *testing.T) {
	srv := New(Config{})
	srv.streamAt = 1 // everything is "large"
	handler := srv.Handler()
	payload := luPayload(t, 12)

	code, body := postRaw(handler, payload)
	if code != http.StatusOK {
		t.Fatalf("streamed request failed: %d %s", code, body)
	}
	var resp Response
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("streamed body not JSON (%v): %s", err, body)
	}
	if resp.Error != "" || resp.Schedule == nil {
		t.Fatalf("streamed response invalid: %+v", resp)
	}

	code, body = postRaw(handler, payload)
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"cached":true`)) {
		t.Fatalf("streamed repeat not a canonical hit: %d %s", code, body)
	}
	st := srv.StatsSnapshot()
	if st.CacheHits != 1 || st.CacheBodyHits != 0 {
		t.Fatalf("streamed entries must stay out of the byte index: %+v", st)
	}

	// batch payloads stream above the threshold too
	batch, err := json.Marshal(Batch{Requests: []Request{
		{Graph: testbeds.LU(10, 10), Platform: platform.Paper(), Heuristic: "heft"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	breq := httptest.NewRequest("POST", "/batch", bytes.NewReader(batch))
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, breq)
	var bresp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &bresp); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("streamed batch failed: %d %v %s", rec.Code, err, rec.Body.Bytes())
	}
	if len(bresp.Responses) != 1 || bresp.Responses[0].Error != "" {
		t.Fatalf("streamed batch content wrong: %+v", bresp)
	}

	// sanity: below the threshold the same flow does attach the index
	plain := New(Config{})
	ph := plain.Handler()
	postRaw(ph, payload)
	postRaw(ph, payload)
	if st := plain.StatsSnapshot(); st.CacheBodyHits != 1 {
		t.Fatalf("unstreamed repeat missed the byte index: %+v", st)
	}
}

// ownedPayloads returns marshaled requests whose canonical keys the ring
// (over exactly {self, owner}) assigns to owner.
func ownedPayloads(t *testing.T, self, owner string, want int) [][]byte {
	t.Helper()
	r := ring.New([]string{self, owner}, 0)
	var out [][]byte
	for n := 8; n <= 120 && len(out) < want; n++ {
		req := Request{Graph: testbeds.LU(n, 10), Platform: platform.Paper(), Heuristic: "heft"}
		if _, err := req.normalize(); err != nil {
			t.Fatal(err)
		}
		if r.Owner(CanonicalSum(&req)) == owner {
			payload, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, payload)
		}
	}
	if len(out) < want {
		t.Fatalf("found %d of %d keys owned by the peer — placement hash changed?", len(out), want)
	}
	return out
}

// TestPeerFillSingleFetch pins the requester-side coalescing of fills: N
// concurrent identical cold requests for a peer-owned key must cost ONE
// owner fetch shared by every waiter — never N full-body transfers (run
// under -race in CI). The stub owner gates its reply until all followers
// are counted waiting, so the assertion is deterministic.
func TestPeerFillSingleFetch(t *testing.T) {
	self := "http://self.example:8642"
	var fills atomic.Int64
	gate := make(chan struct{})
	var canned atomic.Pointer[[]byte]
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fills.Add(1)
		<-gate
		w.Header().Set("Content-Type", "application/json")
		w.Write(*canned.Load())
	}))
	defer stub.Close()

	payload := ownedPayloads(t, self, stub.URL, 1)[0]
	// the owner's reply is a single replica's cache-hit bytes: its repeat
	refH := New(Config{}).Handler()
	if code, body := postRaw(refH, payload); code != http.StatusOK {
		t.Fatalf("reference run failed: %d %s", code, body)
	}
	code, enc := postRaw(refH, payload)
	if code != http.StatusOK || !bytes.Contains(enc, []byte(`"cached":true`)) {
		t.Fatalf("reference repeat not a cache hit: %d %s", code, enc)
	}
	canned.Store(&enc)

	srv := New(Config{Self: self, Peers: []string{self, stub.URL}})
	handler := srv.Handler()
	const n = 6
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body := postRaw(handler, payload)
			if code == http.StatusOK {
				bodies[i] = body
			}
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.StatsSnapshot().Coalesced != n-1 || fills.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("fill never coalesced: %+v fills=%d", srv.StatsSnapshot(), fills.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if got := fills.Load(); got != 1 {
		t.Fatalf("%d concurrent requests issued %d owner fetches, want 1", n, got)
	}
	st := srv.StatsSnapshot()
	if st.PeerHits != 1 || st.CacheMisses != 0 || st.Coalesced != n-1 {
		t.Fatalf("fill accounting off: %+v", st)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(bodies[i], enc) {
			t.Fatalf("caller %d did not receive the owner's bytes verbatim: %s", i, bodies[i])
		}
	}
}

// TestPeerFillHealthAttribution pins which fill outcomes may poison peer
// health: an owner 4xx is the request's fault — the requester computes
// locally and keeps forwarding future keys — while an owner 5xx marks the
// peer down for the cooldown.
func TestPeerFillHealthAttribution(t *testing.T) {
	self := "http://self.example:8642"
	for _, tc := range []struct {
		name       string
		status     int
		wantErrors int64
		wantSecond int64 // fills the stub must have seen after two requests
	}{
		{"4xx stays healthy", http.StatusBadRequest, 0, 2},
		{"5xx marks down", http.StatusInternalServerError, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var fills atomic.Int64
			stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				fills.Add(1)
				w.WriteHeader(tc.status)
			}))
			defer stub.Close()
			payloads := ownedPayloads(t, self, stub.URL, 2)
			srv := New(Config{Self: self, Peers: []string{self, stub.URL}})
			handler := srv.Handler()

			for i, payload := range payloads {
				code, body := postRaw(handler, payload)
				if code != http.StatusOK || !bytes.Contains(body, []byte(`"schedule"`)) {
					t.Fatalf("request %d did not degrade to local compute: %d %s", i, code, body)
				}
			}
			if got := fills.Load(); got != tc.wantSecond {
				t.Fatalf("owner saw %d fill attempts, want %d", got, tc.wantSecond)
			}
			st := srv.StatsSnapshot()
			if st.PeerErrors != tc.wantErrors || st.CacheMisses != 2 || st.PeerHits != 0 {
				t.Fatalf("health accounting off: %+v", st)
			}
		})
	}
}
