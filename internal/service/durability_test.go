package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"oneport/internal/graph"
	"oneport/internal/platform"
	"oneport/internal/service/admit"
	"oneport/internal/service/breaker"
	"oneport/internal/service/journal"
	"oneport/internal/service/relay"
	"oneport/internal/testbeds"
)

// journalStoreT opens a journal store on a fresh (or given) dir for tests.
func journalStoreT(t *testing.T, dir string) *journal.Store {
	t.Helper()
	st, err := journal.Open(journal.Config{Dir: dir, Policy: journal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// noFollow returns a client that surfaces redirects instead of chasing them.
func noFollow(ts *httptest.Server) *http.Client {
	c := *ts.Client()
	c.CheckRedirect = func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }
	return &c
}

// TestReadyzGates walks every not-ready reason: a fresh server is ready, a
// recovering one is not until RecoverSessions finishes, a draining one
// never goes ready again, and a replica browned out to the top of the
// ladder reports not-ready while /healthz stays 200 throughout (liveness
// and readiness must not be conflated — a busy replica is skipped, not
// restarted).
func TestReadyzGates(t *testing.T) {
	ready := func(t *testing.T, ts *httptest.Server, want bool, wantReason string) {
		t.Helper()
		hr, body := doJSON(t, ts, http.MethodGet, "/readyz", nil)
		var r struct {
			Ready  bool   `json:"ready"`
			Reason string `json:"reason"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatalf("/readyz body: %s", body)
		}
		if want && (hr.StatusCode != http.StatusOK || !r.Ready) {
			t.Fatalf("/readyz = %d %s, want ready", hr.StatusCode, body)
		}
		if !want && (hr.StatusCode != http.StatusServiceUnavailable || r.Ready || r.Reason != wantReason) {
			t.Fatalf("/readyz = %d %s, want 503 %q", hr.StatusCode, body, wantReason)
		}
		// liveness is orthogonal: the process is healthy in every state
		if hh, hb := doJSON(t, ts, http.MethodGet, "/healthz", nil); hh.StatusCode != http.StatusOK {
			t.Fatalf("/healthz = %d %s", hh.StatusCode, hb)
		}
	}

	t.Run("recovering", func(t *testing.T) {
		srv := New(Config{SessionJournal: journalStoreT(t, t.TempDir())})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		ready(t, ts, false, "recovering sessions")
		if _, _, err := srv.RecoverSessions(context.Background()); err != nil {
			t.Fatal(err)
		}
		ready(t, ts, true, "")
	})

	t.Run("draining", func(t *testing.T) {
		srv := New(Config{})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		ready(t, ts, true, "")
		srv.DrainSessions(context.Background())
		if !srv.Draining() {
			t.Fatal("Draining() false after DrainSessions")
		}
		ready(t, ts, false, "draining")
		// opens refuse while draining
		hr, body := doJSON(t, ts, http.MethodPost, "/session",
			Request{Graph: testbeds.LU(6, 10), Platform: platform.Paper(), Heuristic: "heft"})
		if hr.StatusCode != http.StatusServiceUnavailable || hr.Header.Get("Retry-After") == "" {
			t.Fatalf("open while draining = %d %s", hr.StatusCode, body)
		}
		if st := statsSnapshot(t, ts); !st.Draining {
			t.Errorf("stats draining = false")
		}
	})

	t.Run("browned out", func(t *testing.T) {
		srv := New(Config{
			PoolSize: 1,
			Admission: &admit.Config{
				MaxQueue:         8,
				ShedBackgroundAt: 1,
				ShedExpensiveAt:  1,
				ShedCheapAt:      2,
				QueueBudget:      -1,
			},
		})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		ready(t, ts, true, "")
		gate := make(chan struct{})
		srv.testHook = func(*Request) { <-gate }
		done := make(chan struct{}, 3)
		for i := 0; i < 3; i++ {
			go func(i int) {
				defer func() { done <- struct{}{} }()
				post(t, ts, "/schedule", Request{
					Graph: testbeds.LU(8+i, 10), Platform: platform.Paper(), Heuristic: "heft"})
			}(i)
		}
		waitAdmit(t, srv, "ladder at its top", func(st admit.Stats) bool {
			return st.BrownoutLevel >= admit.MaxBrownoutLevel
		})
		ready(t, ts, false, "browned out")
		close(gate)
		for i := 0; i < 3; i++ {
			<-done
		}
		waitAdmit(t, srv, "drained", func(st admit.Stats) bool { return st.BrownoutLevel == 0 })
		ready(t, ts, true, "")
	})
}

// TestCrashRecoveryHTTP is the service-level half of the tentpole pin: a
// session opened and mutated over HTTP, its server discarded (nothing but
// the journal directory survives), a new server recovering the directory —
// and the 4th delta's schedule byte-identical to a cold /schedule of the
// equivalent final graph.
func TestCrashRecoveryHTTP(t *testing.T) {
	dir := t.TempDir()
	ts1 := httptest.NewServer(New(Config{SessionJournal: journalStoreT(t, dir)}).Handler())
	// note: never closed cleanly — the "crash" is simply abandoning it
	defer ts1.Close()

	g, pl := testbeds.LU(8, 10), platform.Paper()
	sr := openSession(t, ts1, Request{Graph: g, Platform: pl, Heuristic: "heft", Model: "oneport"})
	cur := g
	for i, d := range []graph.Delta{
		{{Op: "set_weight", Task: intp(2), Weight: floatp(9)}},
		{{Op: "add_task", Weight: floatp(6)}, {Op: "add_edge", From: intp(0), To: intp(g.NumNodes()), Data: floatp(2)}},
		{{Op: "set_weight", Task: intp(5), Weight: floatp(4)}},
	} {
		ng, _, err := d.Apply(cur)
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		cur = ng
		hr, body := doJSON(t, ts1, http.MethodPost, "/session/"+sr.SessionID+"/delta",
			session2Body(t, d))
		if hr.StatusCode != http.StatusOK {
			t.Fatalf("delta %d: %d %s", i, hr.StatusCode, body)
		}
	}

	srv2 := New(Config{SessionJournal: journalStoreT(t, dir)})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if recovered, failed, err := srv2.RecoverSessions(context.Background()); err != nil || recovered != 1 || failed != 0 {
		t.Fatalf("RecoverSessions = %d, %d, %v", recovered, failed, err)
	}

	final := graph.Delta{{Op: "set_weight", Task: intp(0), Weight: floatp(7)}}
	ng, _, err := final.Apply(cur)
	if err != nil {
		t.Fatal(err)
	}
	hr, body := doJSON(t, ts2, http.MethodPost, "/session/"+sr.SessionID+"/delta", session2Body(t, final))
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery delta: %d %s", hr.StatusCode, body)
	}
	var dr SessionResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Deltas != 4 {
		t.Errorf("Deltas = %d, want 4 across the crash", dr.Deltas)
	}
	got, err := json.Marshal(dr.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	want := scheduleJSON(t, ts2, Request{Graph: ng, Platform: pl, Heuristic: "heft", Model: "oneport"})
	if !bytes.Equal(want, got) {
		t.Fatalf("recovered session diverged from the cold oracle:\nwant %s\ngot  %s", want, got)
	}
	if st := statsSnapshot(t, ts2); st.SessionsRecovered != 1 || st.Journal == nil {
		t.Errorf("stats after recovery: recovered=%d journal=%v", st.SessionsRecovered, st.Journal)
	}
}

func session2Body(t *testing.T, d graph.Delta) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{"graph": d})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDrainHandoffNoAckedDeltaLost is the fleet half of the tentpole: a
// two-replica fleet, sessions live on A, A drains — every session must land
// on B with no acked delta lost, A must 307 follow-up traffic at B with the
// owner in X-Session-Owner, and the schedule served by B after one more
// delta must be byte-identical to a cold run of the full mutation history.
func TestDrainHandoffNoAckedDeltaLost(t *testing.T) {
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
	sA.Store(New(Config{Self: tsA.URL, Peers: members, SessionJournal: journalStoreT(t, t.TempDir())}))
	sB.Store(New(Config{Self: tsB.URL, Peers: members, SessionJournal: journalStoreT(t, t.TempDir())}))
	for _, srv := range []*Server{sA.Load(), sB.Load()} {
		if _, _, err := srv.RecoverSessions(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	// a handful of sessions on A, each with one acked delta
	g, pl := testbeds.LU(8, 10), platform.Paper()
	const n = 3
	ids := make([]string, n)
	finals := make([]*graph.Graph, n)
	for i := 0; i < n; i++ {
		sr := openSession(t, tsA, Request{Graph: g, Platform: pl, Heuristic: "heft", Model: "oneport"})
		ids[i] = sr.SessionID
		d := graph.Delta{{Op: "set_weight", Task: intp(i + 1), Weight: floatp(float64(20 + i))}}
		ng, _, err := d.Apply(g)
		if err != nil {
			t.Fatal(err)
		}
		finals[i] = ng
		if hr, body := doJSON(t, tsA, http.MethodPost, "/session/"+sr.SessionID+"/delta",
			session2Body(t, d)); hr.StatusCode != http.StatusOK {
			t.Fatalf("delta on session %d: %d %s", i, hr.StatusCode, body)
		}
	}

	moved, kept := sA.Load().DrainSessions(context.Background())
	if moved != n || kept != 0 {
		t.Fatalf("DrainSessions = %d moved, %d kept, want %d, 0", moved, kept, n)
	}

	// A now 307s session traffic at B, naming the owner
	raw := session2Body(t, graph.Delta{{Op: "set_weight", Task: intp(0), Weight: floatp(3)}})
	req, err := http.NewRequest(http.MethodPost, tsA.URL+"/session/"+ids[0]+"/delta", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	hr, err := noFollow(tsA).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("drained replica answered %d, want 307", hr.StatusCode)
	}
	if got := hr.Header.Get(sessionOwnerHeader); got != tsB.URL {
		t.Fatalf("X-Session-Owner = %q, want %q", got, tsB.URL)
	}
	if loc := hr.Header.Get("Location"); loc != tsB.URL+"/session/"+ids[0]+"/delta" {
		t.Fatalf("Location = %q", loc)
	}

	// and a default client just follows the redirect transparently: the
	// delta lands on B and extends the session's acked history
	for i := 0; i < n; i++ {
		d := graph.Delta{{Op: "set_weight", Task: intp(0), Weight: floatp(float64(3 + i))}}
		ng, _, err := d.Apply(finals[i])
		if err != nil {
			t.Fatal(err)
		}
		hr, body := doJSON(t, tsA, http.MethodPost, "/session/"+ids[i]+"/delta", session2Body(t, d))
		if hr.StatusCode != http.StatusOK {
			t.Fatalf("redirected delta on session %d: %d %s", i, hr.StatusCode, body)
		}
		var dr SessionResponse
		if err := json.Unmarshal(body, &dr); err != nil {
			t.Fatal(err)
		}
		if dr.Deltas != 2 {
			t.Errorf("session %d: Deltas = %d, want 2 (acked delta lost in the move)", i, dr.Deltas)
		}
		got, err := json.Marshal(dr.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		if want := scheduleJSON(t, tsB, Request{Graph: ng, Platform: pl, Heuristic: "heft", Model: "oneport"}); !bytes.Equal(want, got) {
			t.Fatalf("session %d diverged after handoff:\nwant %s\ngot  %s", i, want, got)
		}
	}

	stA, stB := statsSnapshot(t, tsA), statsSnapshot(t, tsB)
	if stA.SessionsHandedOff != n || stB.SessionsImported != n {
		t.Errorf("handoff counters: A handed_off=%d B imported=%d, want %d/%d",
			stA.SessionsHandedOff, stB.SessionsImported, n, n)
	}
	if stA.SessionRedirects == 0 {
		t.Error("A reported no session redirects")
	}
}

// TestSnapshotProbeParIgnored: a replica of an earlier version writes
// probe_par into the snapshots it hands off and journals. A
// /session/peer/import body carrying it still imports (the import decodes
// with DisallowUnknownFields), a journal whose open record carries it
// still recovers, both sessions schedule byte-identically to a cold run,
// and a snapshot exported now leaves the field out.
func TestSnapshotProbeParIgnored(t *testing.T) {
	g, pl := testbeds.LU(8, 10), platform.Paper()
	const id = "00112233445566778899aabbccddeeff"
	snap, err := json.Marshal(map[string]any{
		"id": id, "graph": g, "platform": pl, "heuristic": "heft", "model": "oneport",
		"probe_par": 2, "deltas": 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	cold := httptest.NewServer(New(Config{}).Handler())
	defer cold.Close()

	// handoff from an earlier version
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/session/peer/import", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(relay.EpochHeader, "0")
	hr, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sr SessionResponse
	err = json.NewDecoder(hr.Body).Decode(&sr)
	hr.Body.Close()
	if err != nil || hr.StatusCode != http.StatusOK || sr.SessionID != id {
		t.Fatalf("import answered %d (%v): %+v", hr.StatusCode, err, sr)
	}
	want := scheduleJSON(t, cold, Request{Graph: g, Platform: pl, Heuristic: "heft", Model: "oneport"})
	if got := mustJSON(t, sr.Schedule); got != string(want) {
		t.Fatalf("imported schedule differs from a cold run:\nwant %s\ngot  %s", want, got)
	}

	// journal from an earlier version
	dir := t.TempDir()
	lg, err := journalStoreT(t, dir).Create(id, snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{SessionJournal: journalStoreT(t, dir)})
	if recovered, failed, err := srv.RecoverSessions(context.Background()); recovered != 1 || failed != 0 || err != nil {
		t.Fatalf("RecoverSessions = %d, %d, %v", recovered, failed, err)
	}
	rs := httptest.NewServer(srv.Handler())
	defer rs.Close()
	hr, body := doJSON(t, rs, http.MethodPost, "/session/"+id+"/delta",
		[]byte(`{"graph":[{"op":"set_weight","task":0,"weight":9}]}`))
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("delta on the recovered session: %d %s", hr.StatusCode, body)
	}
	var dr SessionResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	ng := g.Clone()
	if err := ng.SetWeight(0, 9); err != nil {
		t.Fatal(err)
	}
	want = scheduleJSON(t, cold, Request{Graph: ng, Platform: pl, Heuristic: "heft", Model: "oneport"})
	if got := mustJSON(t, dr.Schedule); got != string(want) {
		t.Fatalf("recovered schedule differs from a cold run:\nwant %s\ngot  %s", want, got)
	}
	hr, body = doJSON(t, rs, http.MethodGet, "/session/"+id+"/export", []byte{})
	if hr.StatusCode != http.StatusOK || bytes.Contains(body, []byte("probe_par")) {
		t.Fatalf("export answered %d, want 200 without probe_par: %.200s", hr.StatusCode, body)
	}
}

// TestImportEpochSkew: an import tagged with a foreign ring epoch is
// refused 409 with the serving epoch echoed — a draining sender must never
// place sessions by a membership map the receiver does not share.
func TestImportEpochSkew(t *testing.T) {
	self := "http://127.0.0.1:1"
	srv := New(Config{Self: self, Peers: []string{self, "http://127.0.0.1:2"}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/session/peer/import",
		bytes.NewReader([]byte(`{}`)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(relay.EpochHeader, "999999")
	hr, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusConflict {
		t.Fatalf("skewed import answered %d, want 409", hr.StatusCode)
	}
	if hr.Header.Get(relay.EpochHeader) == "" {
		t.Error("409 does not echo the serving epoch")
	}
	if st := statsSnapshot(t, ts); st.PeerEpochSkew == 0 {
		t.Error("epoch skew not counted")
	}
}

// TestDrainWithDeadPeerKeepsSessions: when every survivor is unreachable,
// the drain keeps the sessions — journaled and recoverable — rather than
// losing them; the replica itself keeps serving deltas on them until the
// process exits.
func TestDrainWithDeadPeerKeepsSessions(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer dead.Close()

	dir := t.TempDir()
	var sA atomic.Pointer[Server]
	tsA := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sA.Load().Handler().ServeHTTP(w, r)
	}))
	defer tsA.Close()
	sA.Store(New(Config{Self: tsA.URL, Peers: []string{tsA.URL, dead.URL},
		SessionJournal: journalStoreT(t, dir)}))
	if _, _, err := sA.Load().RecoverSessions(context.Background()); err != nil {
		t.Fatal(err)
	}

	g, pl := testbeds.LU(8, 10), platform.Paper()
	sr := openSession(t, tsA, Request{Graph: g, Platform: pl, Heuristic: "heft", Model: "oneport"})
	moved, kept := sA.Load().DrainSessions(context.Background())
	if moved != 0 || kept != 1 {
		t.Fatalf("DrainSessions = %d moved, %d kept, want 0, 1", moved, kept)
	}
	// the kept session still serves here (deltas are not refused by drain)
	if hr, body := doJSON(t, tsA, http.MethodPost, "/session/"+sr.SessionID+"/delta",
		session2Body(t, graph.Delta{{Op: "set_weight", Task: intp(1), Weight: floatp(5)}})); hr.StatusCode != http.StatusOK {
		t.Fatalf("delta on kept session: %d %s", hr.StatusCode, body)
	}
	// and it survives the process: a fresh server over the same journal dir
	// recovers it with both deltas' worth of state
	srv2 := New(Config{SessionJournal: journalStoreT(t, dir)})
	if recovered, failed, err := srv2.RecoverSessions(context.Background()); err != nil || recovered != 1 || failed != 0 {
		t.Fatalf("recovery after failed drain = %d, %d, %v", recovered, failed, err)
	}
}

// TestDrainShedPeerKeepsBreakerClosed: a survivor that sheds the import
// with a 503 is alive, not dead — the drain keeps the session here, and
// the peer's circuit breaker stays closed, because overload must never
// masquerade as peer death.
func TestDrainShedPeerKeepsBreakerClosed(t *testing.T) {
	shed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer shed.Close()
	var sA atomic.Pointer[Server]
	tsA := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sA.Load().Handler().ServeHTTP(w, r)
	}))
	defer tsA.Close()
	sA.Store(New(Config{Self: tsA.URL, Peers: []string{tsA.URL, shed.URL}}))

	openSession(t, tsA, Request{Graph: testbeds.LU(8, 10), Platform: platform.Paper(), Heuristic: "heft", Model: "oneport"})
	if moved, kept := sA.Load().DrainSessions(context.Background()); moved != 0 || kept != 1 {
		t.Fatalf("DrainSessions = %d moved, %d kept, want 0, 1", moved, kept)
	}
	if got := sA.Load().Relay().Breakers().Get(shed.URL).CurrentState(time.Now()); got != breaker.Closed {
		t.Fatalf("breaker %v after a shed import, want closed", got)
	}
}

// TestDrainRetriesDroppedImport: an import whose connection drops before
// the survivor answers is sent once more, and the session moves.
func TestDrainRetriesDroppedImport(t *testing.T) {
	var sA, sB atomic.Pointer[Server]
	var dropped atomic.Bool
	tsB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/session/peer/import" && !dropped.Swap(true) {
			panic(http.ErrAbortHandler) // close the connection unanswered
		}
		sB.Load().Handler().ServeHTTP(w, r)
	}))
	defer tsB.Close()
	tsA := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sA.Load().Handler().ServeHTTP(w, r)
	}))
	defer tsA.Close()
	members := []string{tsA.URL, tsB.URL}
	sA.Store(New(Config{Self: tsA.URL, Peers: members}))
	sB.Store(New(Config{Self: tsB.URL, Peers: members}))

	sr := openSession(t, tsA, Request{Graph: testbeds.LU(8, 10), Platform: platform.Paper(), Heuristic: "heft", Model: "oneport"})
	if moved, kept := sA.Load().DrainSessions(context.Background()); moved != 1 || kept != 0 {
		t.Fatalf("DrainSessions = %d moved, %d kept, want 1, 0", moved, kept)
	}
	if !dropped.Load() {
		t.Fatal("the import was never dropped; the retry path did not run")
	}
	if hr, body := doJSON(t, tsB, http.MethodGet, "/session/"+sr.SessionID+"/export", nil); hr.StatusCode != http.StatusOK {
		t.Fatalf("moved session not held by the survivor: %d %s", hr.StatusCode, body)
	}
	if got := sA.Load().Relay().Breakers().Get(tsB.URL).CurrentState(time.Now()); got != breaker.Closed {
		t.Fatalf("breaker %v after a retried import, want closed", got)
	}
}

// TestExportEndpoint: GET /session/{id}/export serializes a live session,
// and the snapshot imports cleanly into a peer via the import endpoint
// (epoch-tagged with the receiver's serving epoch).
func TestExportEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	g, pl := testbeds.LU(8, 10), platform.Paper()
	sr := openSession(t, ts, Request{Graph: g, Platform: pl, Heuristic: "heft", Model: "oneport"})
	hr, body := doJSON(t, ts, http.MethodGet, "/session/"+sr.SessionID+"/export", nil)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("export: %d %s", hr.StatusCode, body)
	}
	var snap struct {
		ID        string `json:"id"`
		Heuristic string `json:"heuristic"`
		Model     string `json:"model"`
		Deltas    int    `json:"deltas"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.ID != sr.SessionID || snap.Heuristic != "heft" || snap.Model != "oneport" {
		t.Fatalf("export body: %s", body)
	}

	// a solo receiver (no peers: serving epoch 0) accepts the snapshot
	ts2 := httptest.NewServer(New(Config{}).Handler())
	defer ts2.Close()
	req, err := http.NewRequest(http.MethodPost, ts2.URL+"/session/peer/import", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(relay.EpochHeader, "0")
	hr2, err := ts2.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer hr2.Body.Close()
	b2 := new(bytes.Buffer)
	if _, err := b2.ReadFrom(hr2.Body); err != nil {
		t.Fatal(err)
	}
	if hr2.StatusCode != http.StatusOK {
		t.Fatalf("import of exported snapshot: %d %s", hr2.StatusCode, b2.Bytes())
	}
	var ir SessionResponse
	if err := json.Unmarshal(b2.Bytes(), &ir); err != nil {
		t.Fatal(err)
	}
	if ir.SessionID != sr.SessionID {
		t.Fatalf("import renamed the session: %s", ir.SessionID)
	}
	// the imported copy answers deltas under the same id
	if hr3, body3 := doJSON(t, ts2, http.MethodPost, "/session/"+sr.SessionID+"/delta",
		session2Body(t, graph.Delta{{Op: "set_weight", Task: intp(1), Weight: floatp(5)}})); hr3.StatusCode != http.StatusOK {
		t.Fatalf("delta on imported session: %d %s", hr3.StatusCode, body3)
	}
	// unknown session on a fleetless replica: a plain 404, no redirect
	if hr4, _ := doJSON(t, ts, http.MethodGet, "/session/ffffffffffffffffffffffffffffffff/export", nil); hr4.StatusCode != http.StatusNotFound {
		t.Fatalf("export of unknown session = %d, want 404", hr4.StatusCode)
	}
}
