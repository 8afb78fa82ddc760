package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"oneport/internal/graph"
	"oneport/internal/heuristics"
	"oneport/internal/platform"
	"oneport/internal/sched"
	"oneport/internal/service/relay"
	"oneport/internal/testbeds"
)

func post(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestScheduleMatchesLibrary pins the service's core contract: the schedule
// coming back over HTTP is byte-identical (as JSON) to a direct library
// call, and the repeat request is served from the cache.
func TestScheduleMatchesLibrary(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	pl := platform.Paper()
	g := testbeds.LU(12, 10)
	req := Request{Graph: g, Platform: pl, Heuristic: "ilha", Model: "oneport", Options: Options{B: 4}}

	want, err := heuristics.ILHA(g, pl, sched.OnePort, heuristics.ILHAOptions{B: 4})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	hr, body := post(t, ts, "/schedule", req)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", hr.StatusCode, body)
	}
	var got Response
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Error != "" || got.Cached {
		t.Fatalf("first response: %+v", got)
	}
	gotJSON, err := json.Marshal(got.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("service schedule differs from library:\n %s\nvs %s", gotJSON, wantJSON)
	}
	if got.Makespan != want.Makespan() || got.Comms != want.CommCount() {
		t.Fatalf("summary fields differ: %+v", got)
	}

	// repeat request: a cache hit with the same schedule bytes
	hr2, body2 := post(t, ts, "/schedule", req)
	if hr2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", hr2.StatusCode, body2)
	}
	var again Response
	if err := json.Unmarshal(body2, &again); err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("repeat request was not a cache hit")
	}
	againJSON, err := json.Marshal(again.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(againJSON, wantJSON) {
		t.Fatal("cached schedule differs from library schedule")
	}
}

// TestConcurrentRequestsByteIdentical floods the server with concurrent
// heterogeneous requests (run under -race in CI): every response must equal
// the direct library result regardless of interleaving, cache state or
// scratch reuse.
func TestConcurrentRequestsByteIdentical(t *testing.T) {
	srv := New(Config{PoolSize: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	pl := platform.Paper()
	type variant struct {
		req  Request
		want []byte
	}
	var variants []variant
	for _, v := range []struct {
		heuristic string
		size      int
		b         int
	}{
		{"heft", 10, 0}, {"heft", 14, 0}, {"ilha", 10, 4}, {"ilha", 14, 7}, {"cpop", 12, 0}, {"dls", 12, 0},
	} {
		g := testbeds.LU(v.size, 10)
		fn, err := heuristics.ByName(v.heuristic, heuristics.ILHAOptions{B: v.b})
		if err != nil {
			t.Fatal(err)
		}
		want, err := fn(g, pl, sched.OnePort)
		if err != nil {
			t.Fatal(err)
		}
		wj, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		variants = append(variants, variant{
			req:  Request{Graph: g, Platform: pl, Heuristic: v.heuristic, Options: Options{B: v.b}},
			want: wj,
		})
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v := variants[i%len(variants)]
			_, body := post(t, ts, "/schedule", v.req)
			var resp Response
			if err := json.Unmarshal(body, &resp); err != nil {
				errs <- err
				return
			}
			if resp.Error != "" {
				errs <- fmt.Errorf("worker %d: %s", i, resp.Error)
				return
			}
			gj, err := json.Marshal(resp.Schedule)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(gj, v.want) {
				errs <- fmt.Errorf("worker %d (%s): schedule differs from library", i, v.req.Heuristic)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := srv.StatsSnapshot()
	if st.Requests != 24 {
		t.Fatalf("requests = %d, want 24", st.Requests)
	}
	// every request is a hit, a computing miss, or coalesced onto an
	// identical in-flight run; each distinct variant computes at least once
	if st.CacheMisses < int64(len(variants)) || st.CacheHits+st.CacheMisses+st.Coalesced != 24 {
		t.Fatalf("cache accounting off: %+v", st)
	}
}

// TestBatch checks the sweep-shaped path: one payload, many jobs, answers
// in input order with per-job errors isolated.
func TestBatch(t *testing.T) {
	ts := httptest.NewServer(New(Config{PoolSize: 3}).Handler())
	defer ts.Close()

	pl := platform.Paper()
	var b Batch
	sizes := []int{8, 10, 12, 14}
	for _, n := range sizes {
		b.Requests = append(b.Requests, Request{Graph: testbeds.LU(n, 10), Platform: pl, Heuristic: "heft"})
	}
	// one poisoned job in the middle: unknown heuristic
	b.Requests = append(b.Requests[:2], append([]Request{{Graph: testbeds.LU(9, 10), Platform: pl, Heuristic: "nope"}}, b.Requests[2:]...)...)

	hr, body := post(t, ts, "/batch", b)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", hr.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Responses) != len(b.Requests) {
		t.Fatalf("%d responses for %d requests", len(out.Responses), len(b.Requests))
	}
	for i, resp := range out.Responses {
		if i == 2 {
			if resp.Error == "" || !strings.Contains(resp.Error, "unknown heuristic") {
				t.Fatalf("poisoned job %d: %+v", i, resp)
			}
			continue
		}
		if resp.Error != "" {
			t.Fatalf("job %d failed: %s", i, resp.Error)
		}
		if resp.Tasks != b.Requests[i].Graph.NumNodes() {
			t.Fatalf("job %d answered out of order: %d tasks, want %d", i, resp.Tasks, b.Requests[i].Graph.NumNodes())
		}
	}
}

// TestBadPayloads drives every rejection path over HTTP: the server must
// answer 400 with a JSON error, never 500 or a panic.
func TestBadPayloads(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body string
	}{
		{"empty object", `{}`},
		{"cyclic graph", `{"graph":{"nodes":[{"weight":1},{"weight":1}],"edges":[{"from":0,"to":1,"data":1},{"from":1,"to":0,"data":1}]},"platform":{"cycles":[1,1]}}`},
		{"bad edge endpoint", `{"graph":{"nodes":[{"weight":1}],"edges":[{"from":0,"to":9,"data":1}]},"platform":{"cycles":[1]}}`},
		{"negative weight", `{"graph":{"nodes":[{"weight":-1}],"edges":[]},"platform":{"cycles":[1]}}`},
		{"bad platform", `{"graph":{"nodes":[{"weight":1}],"edges":[]},"platform":{"cycles":[0]}}`},
		{"unknown heuristic", `{"graph":{"nodes":[{"weight":1}],"edges":[]},"platform":{"cycles":[1]},"heuristic":"zzz"}`},
		{"unknown model", `{"graph":{"nodes":[{"weight":1}],"edges":[]},"platform":{"cycles":[1]},"model":"zzz"}`},
		{"unknown field", `{"graf":{}}`},
		{"not json", `{`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := ts.Client().Post(ts.URL+"/schedule", "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			var out Response
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			if out.Error == "" {
				t.Fatal("400 with no error message")
			}
		})
	}
}

// TestStrictBodyErrors pins the 400s of the bodies that are not a
// Request, all read by readBody and decoded by decodeStrict: the exact
// error texts of /batch (malformed, an unknown field, past the body cap,
// no jobs) and the session delta and import surfaces, each counted in
// errors, and /ring's adminError body, which is not counted.
func TestStrictBodyErrors(t *testing.T) {
	srv := New(Config{Self: "http://self.example:1", AdminToken: "sekrit"})
	handler := srv.Handler()
	oversized := io.MultiReader(strings.NewReader(`{"requests":[`),
		io.LimitReader(spaces{}, maxBodyBytes))
	cases := []struct {
		path string
		body io.Reader
		want string
	}{
		{"/batch", strings.NewReader(`{"requests":[`), `service: bad request body: unexpected EOF`},
		{"/batch", strings.NewReader(`{"jobs":[]}`), `service: bad request body: json: unknown field "jobs"`},
		{"/batch", oversized, `service: bad request body: http: request body too large`},
		{"/batch", strings.NewReader(`{"requests":[]}`), `service: batch has no requests`},
		{"/session/x/delta", strings.NewReader(`{"graph":[`), `service: bad request body: unexpected EOF`},
		{"/session/peer/import", strings.NewReader(`{"id":1}`),
			`service: bad request body: json: cannot unmarshal number into Go struct field Snapshot.id of type string`},
	}
	for i, c := range cases {
		req := httptest.NewRequest(http.MethodPost, c.path, c.body)
		req.Header.Set(relay.EpochHeader, "0")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		var resp Response
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusBadRequest || resp.Error != c.want {
			t.Fatalf("%s (case %d) answered %d %s, want 400 %q", c.path, i, rec.Code, rec.Body.Bytes(), c.want)
		}
		if got := srv.StatsSnapshot().Errors; got != int64(i+1) {
			t.Fatalf("%s (case %d): errors = %d, want %d", c.path, i, got, i+1)
		}
	}

	req := httptest.NewRequest(http.MethodPost, "/ring", strings.NewReader(`{"epoch":"2"}`))
	req.Header.Set("Authorization", "Bearer sekrit")
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	want := `{"error":"service: bad request body: json: cannot unmarshal string into Go struct field ringUpdate.epoch of type uint64"}` + "\n"
	if rec.Code != http.StatusBadRequest || rec.Body.String() != want {
		t.Fatalf("/ring answered %d %s, want 400 %s", rec.Code, rec.Body.Bytes(), want)
	}
	if got := srv.StatsSnapshot().Errors; got != int64(len(cases)) {
		t.Fatalf("/ring's 400 counted in errors: %d", got)
	}
}

// spaces reads as an endless run of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestZeroWeightGraph: an all-zero-weight graph is legal and yields
// makespan 0; the response must stay finite (no NaN speedup) and encode as
// a 200 with a full JSON body.
func TestZeroWeightGraph(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	g := graph.New(2)
	g.AddNode(0, "")
	g.AddNode(0, "")
	g.MustEdge(0, 1, 0)
	pl, err := platform.Homogeneous(2)
	if err != nil {
		t.Fatal(err)
	}
	hr, body := post(t, ts, "/schedule", Request{Graph: g, Platform: pl, Heuristic: "heft"})
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", hr.StatusCode, body)
	}
	var resp Response
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("body not JSON (%v): %s", err, body)
	}
	if resp.Error != "" || resp.Makespan != 0 || resp.Speedup != 0 {
		t.Fatalf("unexpected response: %+v", resp)
	}
}

// TestHealthzAndStats smoke-tests the operational endpoints.
func TestHealthzAndStats(t *testing.T) {
	srv := New(Config{CacheSize: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	pl := platform.Paper()
	for _, n := range []int{6, 8, 10} { // 3 distinct keys through a 2-entry LRU
		req := Request{Graph: testbeds.LU(n, 10), Platform: pl}
		if _, body := post(t, ts, "/schedule", req); !bytes.Contains(body, []byte(`"schedule"`)) {
			t.Fatalf("schedule missing: %s", body)
		}
	}
	st, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	var stats Stats
	if err := json.NewDecoder(st.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Requests != 3 || stats.CacheMisses != 3 || stats.CacheLen != 2 {
		t.Fatalf("stats: %+v", stats)
	}
}

// TestCanonicalKey pins the key's invariants: insensitive to edge insertion
// order and probe parallelism, sensitive to every problem-defining field.
func TestCanonicalKey(t *testing.T) {
	pl := platform.Paper()
	mk := func(order []int) *graph.Graph {
		g := graph.New(3)
		g.AddNode(1, "")
		g.AddNode(2, "")
		g.AddNode(3, "")
		edges := [][3]float64{{0, 1, 5}, {0, 2, 6}, {1, 2, 7}}
		for _, i := range order {
			e := edges[i]
			g.MustEdge(int(e[0]), int(e[1]), e[2])
		}
		return g
	}
	base := Request{Graph: mk([]int{0, 1, 2}), Platform: pl, Heuristic: "heft", Model: "oneport"}
	if _, err := base.normalize(); err != nil {
		t.Fatal(err)
	}
	key := CanonicalKey(&base)

	reordered := base
	reordered.Graph = mk([]int{2, 0, 1})
	if CanonicalKey(&reordered) != key {
		t.Fatal("edge insertion order changed the key")
	}
	alias := base
	alias.Model = "one-port" // normalize rewrites aliases to the canonical name
	if _, err := alias.normalize(); err != nil {
		t.Fatal(err)
	}
	if CanonicalKey(&alias) != key {
		t.Fatal("model alias changed the key")
	}
	tuned := base
	tuned.Options.ProbeParallelism = 7
	if CanonicalKey(&tuned) != key {
		t.Fatal("probe parallelism changed the key")
	}

	for name, mut := range map[string]func(*Request){
		"heuristic": func(r *Request) { r.Heuristic = "ilha" },
		"model":     func(r *Request) { r.Model = "macro" },
		"B":         func(r *Request) { r.Options.B = 9 },
		"scan":      func(r *Request) { r.Options.ScanDepth = 2 },
		"platform": func(r *Request) {
			p, err := platform.Homogeneous(4)
			if err != nil {
				t.Fatal(err)
			}
			r.Platform = p
		},
		"graph": func(r *Request) { r.Graph = testbeds.LU(5, 10) },
	} {
		alt := base
		mut(&alt)
		if CanonicalKey(&alt) == key {
			t.Fatalf("changing %s did not change the key", name)
		}
	}
}
