package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"oneport/internal/graph"
	"oneport/internal/platform"
	"oneport/internal/testbeds"
)

// postRaw drives the handler directly (no sockets), returning status and body.
func postRaw(handler http.Handler, payload []byte) (int, []byte) {
	req := httptest.NewRequest("POST", "/schedule", bytes.NewReader(payload))
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// TestEncodedCacheConcurrentHits hammers the byte-index fast path from many
// goroutines (run under -race in CI): every hit must serve exactly the same
// pre-encoded bytes, and the counters must account for one miss plus all
// hits. This is the concurrency pin for the shared, immutable enc storage.
func TestEncodedCacheConcurrentHits(t *testing.T) {
	srv := New(Config{PoolSize: 2})
	handler := srv.Handler()
	payload, err := json.Marshal(Request{
		Graph: testbeds.LU(12, 10), Platform: platform.Paper(), Heuristic: "heft",
	})
	if err != nil {
		t.Fatal(err)
	}

	// prime: first request computes and indexes the encoded response
	code, first := postRaw(handler, payload)
	if code != http.StatusOK {
		t.Fatalf("prime status %d: %s", code, first)
	}
	var primed Response
	if err := json.Unmarshal(first, &primed); err != nil {
		t.Fatal(err)
	}
	if primed.Cached || primed.Error != "" {
		t.Fatalf("prime response: %+v", primed)
	}

	const workers, reps = 16, 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	bodies := make([][]byte, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < reps; r++ {
				code, body := postRaw(handler, payload)
				if code != http.StatusOK {
					errs <- nil
					return
				}
				bodies[i] = append([]byte(nil), body...)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	if len(errs) > 0 {
		t.Fatal("a concurrent hit answered non-200")
	}
	for i := 1; i < workers; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("worker %d served different bytes", i)
		}
	}
	var hit Response
	if err := json.Unmarshal(bodies[0], &hit); err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || hit.Key != primed.Key {
		t.Fatalf("hit response not a cache hit: %+v", hit)
	}
	st := srv.StatsSnapshot()
	if st.CacheMisses != 1 || st.CacheHits != workers*reps {
		t.Fatalf("cache accounting off: %+v", st)
	}
	if st.CacheBodyHits == 0 {
		t.Fatal("no hit went through the byte index")
	}
}

// TestCacheHitAllocs is the allocation budget of the serving fast path: a
// repeated request must be answered in a near-zero-alloc hash + Write, not
// a decode/re-encode cycle. The pre-PR hit path cost ~2200 allocs; the
// budget leaves room for the recorder and header plumbing only. Skipped
// under -race, whose instrumentation allocates.
func TestCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	srv := New(Config{PoolSize: 1})
	handler := srv.Handler()
	payload, err := json.Marshal(Request{
		Graph: testbeds.LU(20, 10), Platform: platform.Paper(), Heuristic: "heft",
	})
	if err != nil {
		t.Fatal(err)
	}
	if code, body := postRaw(handler, payload); code != http.StatusOK {
		t.Fatalf("prime status %d: %s", code, body)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if code, _ := postRaw(handler, payload); code != http.StatusOK {
			t.Fatal("hit answered non-200")
		}
	})
	// ~12 allocs observed: recorder, header map, request plumbing. 40 keeps
	// headroom across Go versions while still failing loudly if JSON work
	// ever sneaks back onto the hit path (thousands of allocs).
	if allocs > 40 {
		t.Fatalf("cache hit costs %.0f allocs, budget 40", allocs)
	}
}

// TestCanonicalAliasSpellings: two byte-different spellings of the same
// problem (the model written under an alias) share one canonical entry;
// each spelling gets its own byte-index alias after first contact, so
// repeats of either spelling ride the fast path.
func TestCanonicalAliasSpellings(t *testing.T) {
	srv := New(Config{PoolSize: 1})
	handler := srv.Handler()
	mk := func(model string) []byte {
		g := graph.New(3)
		g.AddNode(1, "")
		g.AddNode(2, "")
		g.AddNode(3, "")
		g.MustEdge(0, 1, 5)
		g.MustEdge(0, 2, 6)
		g.MustEdge(1, 2, 7)
		payload, err := json.Marshal(Request{Graph: g, Platform: platform.Paper(), Heuristic: "heft", Model: model})
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	// normalize rewrites the "one-port" alias to "oneport": same canonical
	// key, different request bytes
	a, b := mk("oneport"), mk("one-port")
	if bytes.Equal(a, b) {
		t.Fatal("spellings must differ as bytes for this test to bite")
	}

	if code, _ := postRaw(handler, a); code != http.StatusOK {
		t.Fatal("spelling A failed")
	}
	// spelling B: byte miss, canonical hit; registers B's alias
	code, body := postRaw(handler, b)
	if code != http.StatusOK {
		t.Fatal("spelling B failed")
	}
	var resp Response
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Fatal("spelling B did not hit the canonical index")
	}
	before := srv.StatsSnapshot().CacheBodyHits
	if code, _ := postRaw(handler, b); code != http.StatusOK {
		t.Fatal("spelling B repeat failed")
	}
	if got := srv.StatsSnapshot().CacheBodyHits; got != before+1 {
		t.Fatalf("spelling B repeat missed the byte index: body hits %d -> %d", before, got)
	}
	if st := srv.StatsSnapshot(); st.CacheMisses != 1 {
		t.Fatalf("want a single scheduler run across spellings: %+v", st)
	}
}

// TestEncodedCacheEvictionDropsAliases pins the index consistency: evicting
// a canonical entry must drop its raw-body aliases, so a later identical
// request recomputes instead of serving freed bytes.
func TestEncodedCacheEvictionDropsAliases(t *testing.T) {
	c := newResultCache(1)
	resp := &Response{Key: "k1"}
	body := sha256.Sum256([]byte("req1"))
	c.add("k1", resp, []byte(`{"key":"k1"}`))
	c.alias("k1", body)
	if _, ok := c.getByBody(body); !ok {
		t.Fatal("alias not registered")
	}
	c.add("k2", &Response{Key: "k2"}, []byte(`{"key":"k2"}`)) // evicts k1
	if _, ok := c.getByBody(body); ok {
		t.Fatal("evicted entry still reachable through its body alias")
	}
	if _, _, ok := c.get("k1"); ok {
		t.Fatal("evicted entry still reachable through its canonical key")
	}
	// refreshing an existing entry drops its aliases too
	body2 := sha256.Sum256([]byte("req2"))
	c.alias("k2", body2)
	c.add("k2", &Response{Key: "k2", Makespan: 1}, nil)
	if _, ok := c.getByBody(body2); ok {
		t.Fatal("refreshed entry served the replaced response's bytes")
	}
	// an entry without bytes (a streamed size) takes no alias
	c.alias("k2", body2)
	if _, ok := c.getByBody(body2); ok {
		t.Fatal("byte-less entry registered a body alias")
	}
}
