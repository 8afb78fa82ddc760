package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"oneport/internal/graph"
	"oneport/internal/platform"
	"oneport/internal/testbeds"
)

func doJSON(t *testing.T, ts *httptest.Server, method, path string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if raw, ok := body.([]byte); ok {
		rd = bytes.NewReader(raw)
	} else {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	hreq, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := ts.Client().Do(hreq)
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

func openSession(t *testing.T, ts *httptest.Server, req Request) SessionResponse {
	t.Helper()
	hr, body := doJSON(t, ts, http.MethodPost, "/session", req)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("open: status %d: %s", hr.StatusCode, body)
	}
	var sr SessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.SessionID == "" || sr.Error != "" {
		t.Fatalf("open: %+v", sr)
	}
	return sr
}

// scheduleJSON runs POST /schedule and returns the schedule's JSON bytes —
// the cold oracle the session surface is compared against.
func scheduleJSON(t *testing.T, ts *httptest.Server, req Request) []byte {
	t.Helper()
	hr, body := post(t, ts, "/schedule", req)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("/schedule: status %d: %s", hr.StatusCode, body)
	}
	var resp Response
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(resp.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSessionOpenWaitsForPoolSlot pins the gate with admission off: a
// session open is a cold run, so it waits for a pool slot as a /schedule
// run does. With the only slot held by a /schedule compute parked in the
// hook, a concurrent POST /session must not answer until the hook
// releases; it then answers 200 with the cold schedule (run under -race
// in CI).
func TestSessionOpenWaitsForPoolSlot(t *testing.T) {
	srv := New(Config{PoolSize: 1})
	handler := srv.Handler()
	payload := luPayload(t, 12)
	entered, gate := make(chan struct{}), make(chan struct{})
	srv.testHook = func(*Request) {
		close(entered)
		<-gate
	}
	serve := func(path string) <-chan *httptest.ResponseRecorder {
		done := make(chan *httptest.ResponseRecorder, 1)
		go func() {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(payload)))
			done <- rec
		}()
		return done
	}
	scheduled := serve("/schedule")
	<-entered
	opened := serve("/session")
	select {
	case rec := <-opened:
		close(gate)
		t.Fatalf("session open answered %d while the only pool slot was held: %.200s", rec.Code, rec.Body.Bytes())
	case <-time.After(200 * time.Millisecond):
	}
	close(gate)

	var cold Response
	if rec := <-scheduled; rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &cold) != nil {
		t.Fatalf("parked /schedule answered %d: %.200s", rec.Code, rec.Body.Bytes())
	}
	var sr SessionResponse
	if rec := <-opened; rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &sr) != nil || sr.SessionID == "" {
		t.Fatalf("session open answered %d: %.200s", rec.Code, rec.Body.Bytes())
	}
	if mustJSON(t, sr.Schedule) != mustJSON(t, cold.Schedule) {
		t.Fatal("session open's schedule differs from the cold /schedule run")
	}
}

// TestSessionHTTPOracle pins the surface's core contract: after a chain of
// deltas, the session's schedule is byte-identical to POST /schedule of the
// equivalent final graph on the same server.
func TestSessionHTTPOracle(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	pl := platform.Paper()
	g := testbeds.LU(8, 10)
	sr := openSession(t, ts, Request{Graph: g, Platform: pl, Heuristic: "heft", Model: "oneport"})
	if sr.Heuristic != "heft" || sr.Model != "oneport" || sr.Deltas != 0 {
		t.Fatalf("open reply: %+v", sr)
	}

	e := g.Edges()[3]
	deltas := []graph.Delta{
		{{Op: "set_weight", Task: intp(2), Weight: floatp(9)}},
		{{Op: "set_data", From: intp(e.From), To: intp(e.To), Data: floatp(e.Data + 2)}},
		{
			{Op: "add_task", Weight: floatp(4)},
			{Op: "add_edge", From: intp(1), To: intp(g.NumNodes()), Data: floatp(3)},
		},
	}
	// mirror the same ops onto a plain graph for the cold reference
	cur := g
	for di, d := range deltas {
		ng, _, err := d.Apply(cur)
		if err != nil {
			t.Fatalf("delta %d: %v", di, err)
		}
		hr, body := doJSON(t, ts, http.MethodPost, "/session/"+sr.SessionID+"/delta",
			[]byte(`{"graph":`+mustJSON(t, d)+`}`))
		if hr.StatusCode != http.StatusOK {
			t.Fatalf("delta %d: status %d: %s", di, hr.StatusCode, body)
		}
		var dr SessionResponse
		if err := json.Unmarshal(body, &dr); err != nil {
			t.Fatal(err)
		}
		if dr.SessionID != sr.SessionID || dr.Deltas != di+1 || dr.Error != "" {
			t.Fatalf("delta %d reply: %+v", di, dr)
		}
		got, err := json.Marshal(dr.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		want := scheduleJSON(t, ts, Request{Graph: ng, Platform: pl, Heuristic: "heft", Model: "oneport"})
		if !bytes.Equal(got, want) {
			t.Fatalf("delta %d: session schedule differs from cold /schedule:\n %s\nvs %s", di, got, want)
		}
		cur = ng
	}

	// the deltas and replayed work show up in /stats
	st := statsSnapshot(t, ts)
	if st.SessionsOpen != 1 || st.SessionDeltas != 3 {
		t.Fatalf("stats: %+v", st)
	}
	if st.SessionReplayedTasks == 0 {
		t.Fatal("stats: no replayed tasks recorded for localized deltas")
	}

	// close; the id is gone
	hr, _ := doJSON(t, ts, http.MethodDelete, "/session/"+sr.SessionID, nil)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("close: status %d", hr.StatusCode)
	}
	hr, _ = doJSON(t, ts, http.MethodPost, "/session/"+sr.SessionID+"/delta", []byte(`{"graph":[{"op":"add_task","weight":1}]}`))
	if hr.StatusCode != http.StatusNotFound {
		t.Fatalf("delta after close: status %d, want 404", hr.StatusCode)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func statsSnapshot(t *testing.T, ts *httptest.Server) Stats {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSessionHTTPAdversarial drives the delta endpoint with hostile
// payloads: each must come back 4xx with a JSON error, and the session must
// keep serving correct schedules afterwards.
func TestSessionHTTPAdversarial(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	pl := platform.Paper()
	g := testbeds.LU(6, 10)
	sr := openSession(t, ts, Request{Graph: g, Platform: pl, Heuristic: "heft", Model: "oneport"})
	n := g.NumNodes()

	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"malformed json", `{"graph":[{`, http.StatusBadRequest},
		{"unknown field", `{"graph":[],"frobnicate":1}`, http.StatusBadRequest},
		{"empty delta", `{}`, http.StatusBadRequest},
		{"cycle", fmt.Sprintf(`{"graph":[{"op":"add_edge","from":%d,"to":0,"data":1}]}`, n-1), http.StatusBadRequest},
		{"unknown task", `{"graph":[{"op":"set_weight","task":9999,"weight":1}]}`, http.StatusBadRequest},
		{"unknown proc", `{"platform":[{"op":"set_cycle","proc":99,"cycle":1}]}`, http.StatusBadRequest},
		{"duplicate edge", fmt.Sprintf(`{"graph":[{"op":"add_edge","from":%d,"to":%d,"data":1}]}`, g.Edges()[0].From, g.Edges()[0].To), http.StatusBadRequest},
		{"nan weight", `{"graph":[{"op":"set_weight","task":0,"weight":"NaN"}]}`, http.StatusBadRequest},
		{"orphaning removal", `{"platform":[{"op":"remove_proc","proc":0},{"op":"remove_proc","proc":0},{"op":"remove_proc","proc":0},{"op":"remove_proc","proc":0},{"op":"remove_proc","proc":0},{"op":"remove_proc","proc":0},{"op":"remove_proc","proc":0},{"op":"remove_proc","proc":0},{"op":"remove_proc","proc":0},{"op":"remove_proc","proc":0}]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hr, body := doJSON(t, ts, http.MethodPost, "/session/"+sr.SessionID+"/delta", []byte(tc.body))
			if hr.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", hr.StatusCode, tc.status, body)
			}
			var resp Response
			if err := json.Unmarshal(body, &resp); err != nil || resp.Error == "" {
				t.Fatalf("error body: %s (%v)", body, err)
			}
		})
	}
	// unknown session id on the same surface
	hr, _ := doJSON(t, ts, http.MethodPost, "/session/feedbead/delta", []byte(`{"graph":[{"op":"add_task","weight":1}]}`))
	if hr.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session: status %d, want 404", hr.StatusCode)
	}

	// after all of it: a good delta, checked against cold /schedule
	d := graph.Delta{{Op: "set_weight", Task: intp(1), Weight: floatp(7)}}
	ng, _, err := d.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	hr, body := doJSON(t, ts, http.MethodPost, "/session/"+sr.SessionID+"/delta", []byte(`{"graph":`+mustJSON(t, d)+`}`))
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("good delta: status %d: %s", hr.StatusCode, body)
	}
	var dr SessionResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(dr.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if want := scheduleJSON(t, ts, Request{Graph: ng, Platform: pl, Heuristic: "heft", Model: "oneport"}); !bytes.Equal(got, want) {
		t.Fatalf("post-adversarial schedule differs from cold run")
	}
}

func intp(v int) *int           { return &v }
func floatp(v float64) *float64 { return &v }

// TestSessionHTTPFull: a table at capacity answers 503 with a Retry-After
// hint; closing a session admits the next open.
func TestSessionHTTPFull(t *testing.T) {
	ts := httptest.NewServer(New(Config{MaxSessions: 1, SessionTTL: -1}).Handler())
	defer ts.Close()
	req := Request{Graph: testbeds.ForkJoin(5, 10), Platform: platform.Paper(), Heuristic: "heft", Model: "oneport"}
	sr := openSession(t, ts, req)
	hr, body := doJSON(t, ts, http.MethodPost, "/session", req)
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", hr.StatusCode, body)
	}
	if ra, err := strconv.Atoi(hr.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want a positive integer", hr.Header.Get("Retry-After"))
	}
	if hr, _ := doJSON(t, ts, http.MethodDelete, "/session/"+sr.SessionID, nil); hr.StatusCode != http.StatusOK {
		t.Fatalf("close: status %d", hr.StatusCode)
	}
	openSession(t, ts, req)
}

// TestSessionHTTPOpenErrors: invalid open payloads are 400s and never
// consume a session slot.
func TestSessionHTTPOpenErrors(t *testing.T) {
	ts := httptest.NewServer(New(Config{MaxSessions: 1}).Handler())
	defer ts.Close()
	for name, body := range map[string]string{
		"malformed":         `{"graph":`,
		"unknown field":     `{"graph":null,"zap":1}`,
		"missing graph":     `{"platform":null}`,
		"unknown heuristic": mustJSON(t, Request{Graph: testbeds.ForkJoin(4, 10), Platform: platform.Paper(), Heuristic: "nope"}),
		"bad model":         mustJSON(t, Request{Graph: testbeds.ForkJoin(4, 10), Platform: platform.Paper(), Model: "wormhole"}),
	} {
		hr, rb := doJSON(t, ts, http.MethodPost, "/session", []byte(body))
		if hr.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", name, hr.StatusCode, rb)
		}
	}
	// table still has its slot
	openSession(t, ts, Request{Graph: testbeds.ForkJoin(4, 10), Platform: platform.Paper(), Heuristic: "heft"})
}

// TestSessionHTTPStreaming is the PR's streaming regression: a session
// response whose estimate exceeds the streaming threshold must take the
// streaming path — stream mark on the wire, no pooled staging — and still
// carry the full, decodable session payload. Small responses must stay
// unmarked.
func TestSessionHTTPStreaming(t *testing.T) {
	srv := New(Config{})
	srv.streamAt = 2048
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	pl := platform.Paper()
	big := testbeds.LU(10, 10) // 66 tasks: estimate ~6k+ > 2048
	sr := openSession(t, ts, Request{Graph: big, Platform: pl, Heuristic: "heft", Model: "oneport"})

	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/session/"+sr.SessionID+"/delta",
		bytes.NewReader([]byte(`{"graph":[{"op":"set_weight","task":1,"weight":8}]}`)))
	if err != nil {
		t.Fatal(err)
	}
	hr, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status %d", hr.StatusCode)
	}
	if hr.Header.Get(streamMarkHeader) == "" {
		t.Fatalf("big session response missing %s header (did not stream)", streamMarkHeader)
	}
	var dr SessionResponse
	if err := json.NewDecoder(hr.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	if dr.SessionID != sr.SessionID || dr.Schedule == nil || len(dr.Schedule.Tasks) != big.NumNodes() {
		t.Fatalf("streamed reply incomplete: %+v", dr)
	}

	// a small session on the same server stays buffered (no stream mark)
	small := openSession(t, ts, Request{Graph: testbeds.ForkJoin(3, 10), Platform: pl, Heuristic: "heft", Model: "oneport"})
	hr2, _ := doJSON(t, ts, http.MethodPost, "/session/"+small.SessionID+"/delta",
		[]byte(`{"graph":[{"op":"set_weight","task":0,"weight":2}]}`))
	if hr2.Header.Get(streamMarkHeader) != "" {
		t.Fatal("small session response unexpectedly stream-marked")
	}
}

// TestSessionHTTPConcurrentDeltas fires concurrent deltas at one session
// over HTTP (run under -race in CI): all must succeed, and the final
// serialized state must match the cold run of the fully-deltaed graph.
func TestSessionHTTPConcurrentDeltas(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	pl := platform.Paper()
	g := testbeds.ForkJoin(24, 10)
	sr := openSession(t, ts, Request{Graph: g, Platform: pl, Heuristic: "heft", Model: "oneport"})

	const workers = 6
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"graph":[{"op":"set_weight","task":%d,"weight":%d}]}`, w+1, 40+w)
			hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/session/"+sr.SessionID+"/delta", bytes.NewReader([]byte(body)))
			if err != nil {
				errs[w] = err
				return
			}
			hr, err := ts.Client().Do(hreq)
			if err != nil {
				errs[w] = err
				return
			}
			defer hr.Body.Close()
			if hr.StatusCode != http.StatusOK {
				errs[w] = fmt.Errorf("status %d", hr.StatusCode)
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	final := g.Clone()
	for w := 0; w < workers; w++ {
		if err := final.SetWeight(w+1, float64(40+w)); err != nil {
			t.Fatal(err)
		}
	}
	if err := final.SetWeight(0, 77); err != nil {
		t.Fatal(err)
	}
	hr, body := doJSON(t, ts, http.MethodPost, "/session/"+sr.SessionID+"/delta",
		[]byte(`{"graph":[{"op":"set_weight","task":0,"weight":77}]}`))
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("final delta: status %d: %s", hr.StatusCode, body)
	}
	var dr SessionResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Deltas != workers+1 {
		t.Fatalf("Deltas = %d, want %d", dr.Deltas, workers+1)
	}
	got, err := json.Marshal(dr.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if want := scheduleJSON(t, ts, Request{Graph: final, Platform: pl, Heuristic: "heft", Model: "oneport"}); !bytes.Equal(got, want) {
		t.Fatal("concurrent-delta end state differs from cold run")
	}
}

// TestSessionHTTPTimeout: with a vanishingly small RequestTimeout a session
// run aborts cooperatively and answers 503 + Retry-After.
func TestSessionHTTPTimeout(t *testing.T) {
	ts := httptest.NewServer(New(Config{RequestTimeout: time.Nanosecond}).Handler())
	defer ts.Close()
	req := Request{Graph: testbeds.LU(10, 10), Platform: platform.Paper(), Heuristic: "heft", Model: "oneport"}
	hr, body := doJSON(t, ts, http.MethodPost, "/session", req)
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", hr.StatusCode, body)
	}
	if hr.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	// the failed open released its table slot
	st := statsSnapshot(t, ts)
	if st.SessionsOpen != 0 {
		t.Fatalf("sessions_open = %d after aborted open, want 0", st.SessionsOpen)
	}
	if st.Timeouts == 0 {
		t.Fatal("timeout not counted")
	}
}
