package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"oneport/internal/graph"
	"oneport/internal/platform"
	"oneport/internal/sched"
	"oneport/internal/service/relay"
	"oneport/internal/testbeds"
)

// wireBodies returns what json.Marshal(Request) produces for every testbed
// on a dense, a sparse (null wires) and a uniform_link platform, the three
// platform spellings clients send.
func wireBodies(t testing.TB) map[string][]byte {
	t.Helper()
	inf := math.Inf(1)
	sparse, err := platform.New([]float64{1, 2, 3, 4}, [][]float64{
		{0, 1, inf, 1}, {1, 0, 1, inf}, {inf, 1, 0, 1}, {1, inf, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, name := range testbeds.Names() {
		g, err := testbeds.ByName(name, 6, 10)
		if err != nil {
			t.Fatal(err)
		}
		req := Request{Graph: g, Heuristic: "ilha", Model: "oneport", Options: Options{B: 4, ScanDepth: 2}}
		req.Platform = platform.Paper()
		out[name+"/dense"] = mustMarshal(t, req)
		req.Platform = sparse
		req.Heuristic, req.Model, req.Options = "heft", "linkcontention", Options{}
		out[name+"/sparse"] = mustMarshal(t, req)
		// json.Marshal never writes the uniform_link shorthand: splice it in
		var m map[string]json.RawMessage
		if err := json.Unmarshal(mustMarshal(t, req), &m); err != nil {
			t.Fatal(err)
		}
		m["platform"] = json.RawMessage(`{"cycles":[6,10,15],"uniform_link":2}`)
		out[name+"/uniform"] = mustMarshal(t, m)
	}
	return out
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFastReaderAcceptsMarshalled pins that the single-pass reader, not
// the encoding/json fallback, decodes what clients actually send: without
// it, the cold path's gain could vanish behind the fallback with every
// other test still green. Whitespace re-spellings (the hot-zipf shape) and
// reversed edge order must stay on the fast path too.
func TestFastReaderAcceptsMarshalled(t *testing.T) {
	for name, body := range wireBodies(t) {
		var req Request
		if !readRequest(body, &req) {
			t.Errorf("%s: fast reader refused %.120s", name, body)
		}
		respelled := append([]byte(" \t\n\r"), bytes.ReplaceAll(body, []byte(`,"`), []byte(" ,\n\t\""))...)
		respelled = append(respelled, "\r\n "...)
		if !readRequest(respelled, &req) {
			t.Errorf("%s: fast reader refused the whitespace re-spelling %.120s", name, respelled)
		}
	}
	g := testbeds.LU(8, 10)
	rev := graph.New(g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		rev.AddNode(g.Weight(v), g.Label(v))
	}
	edges := g.Edges()
	for i := len(edges) - 1; i >= 0; i-- {
		rev.MustEdge(edges[i].From, edges[i].To, edges[i].Data)
	}
	var req Request
	if body := mustMarshal(t, Request{Graph: rev, Platform: platform.Paper(), Model: "1port"}); !readRequest(body, &req) {
		t.Errorf("fast reader refused a reversed-edge body %.120s", body)
	}
}

// refRequest decodes a request the way the service did before the
// single-pass reader, with encoding/json's reflection alone: strict at the
// top level, lenient inside graph and platform, which are then built
// through the same constructors and checks their UnmarshalJSON apply.
type refRequest struct {
	Graph     json.RawMessage `json:"graph"`
	Platform  json.RawMessage `json:"platform"`
	Heuristic string          `json:"heuristic"`
	Model     string          `json:"model,omitempty"`
	Options   Options         `json:"options,omitempty"`
}

func referenceDecode(body []byte) (*Request, error) {
	var rr refRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rr); err != nil {
		return nil, err
	}
	req := &Request{Heuristic: rr.Heuristic, Model: rr.Model, Options: rr.Options}
	if rr.Graph != nil {
		var jg struct {
			Nodes []struct {
				Weight float64 `json:"weight"`
				Label  string  `json:"label,omitempty"`
			} `json:"nodes"`
			Edges []graph.Edge `json:"edges"`
		}
		if err := json.Unmarshal(rr.Graph, &jg); err != nil {
			return nil, err
		}
		g := &graph.Graph{}
		for _, n := range jg.Nodes {
			if n.Weight < 0 || math.IsNaN(n.Weight) || math.IsInf(n.Weight, 0) {
				return nil, fmt.Errorf("weight %g", n.Weight)
			}
			g.AddNode(n.Weight, n.Label)
		}
		for _, e := range jg.Edges {
			if err := g.AddEdge(e.From, e.To, e.Data); err != nil {
				return nil, err
			}
		}
		if err := g.Validate(); err != nil {
			return nil, err
		}
		req.Graph = g
	}
	if rr.Platform != nil {
		var jp struct {
			Cycles      []float64    `json:"cycles"`
			Link        [][]*float64 `json:"link,omitempty"`
			UniformLink *float64     `json:"uniform_link,omitempty"`
		}
		if err := json.Unmarshal(rr.Platform, &jp); err != nil {
			return nil, err
		}
		var pl *platform.Platform
		var err error
		switch {
		case jp.Link == nil:
			cost := 1.0
			if jp.UniformLink != nil {
				cost = *jp.UniformLink
			}
			pl, err = platform.Uniform(jp.Cycles, cost)
		case jp.UniformLink != nil:
			err = fmt.Errorf("both link forms")
		default:
			link := make([][]float64, len(jp.Link))
			for q, row := range jp.Link {
				for _, c := range row {
					if c == nil {
						link[q] = append(link[q], math.Inf(1))
					} else {
						link[q] = append(link[q], *c)
					}
				}
			}
			pl, err = platform.New(jp.Cycles, link)
		}
		if err != nil {
			return nil, err
		}
		req.Platform = pl
	}
	return req, nil
}

// sameRequest reports the first difference between two decoded requests:
// scalar fields and options, node weights (as float bits) and labels, the
// Edges() sequence and every predecessor list — adjacency order feeds
// heuristic tie-breaks — and the platform's float bits.
func sameRequest(a, b *Request) error {
	bits := math.Float64bits
	if a.Heuristic != b.Heuristic || a.Model != b.Model || a.Options != b.Options {
		return fmt.Errorf("scalars %q/%q/%+v vs %q/%q/%+v", a.Heuristic, a.Model, a.Options, b.Heuristic, b.Model, b.Options)
	}
	if (a.Graph == nil) != (b.Graph == nil) || (a.Platform == nil) != (b.Platform == nil) {
		return fmt.Errorf("graph/platform presence differs")
	}
	if ga, gb := a.Graph, b.Graph; ga != nil {
		if ga.NumNodes() != gb.NumNodes() || ga.NumEdges() != gb.NumEdges() {
			return fmt.Errorf("graph shape %d/%d vs %d/%d", ga.NumNodes(), ga.NumEdges(), gb.NumNodes(), gb.NumEdges())
		}
		for v := 0; v < ga.NumNodes(); v++ {
			if bits(ga.Weight(v)) != bits(gb.Weight(v)) || ga.Label(v) != gb.Label(v) {
				return fmt.Errorf("node %d: %g %q vs %g %q", v, ga.Weight(v), ga.Label(v), gb.Weight(v), gb.Label(v))
			}
			pa, pb := ga.Pred(v), gb.Pred(v)
			if len(pa) != len(pb) {
				return fmt.Errorf("node %d in-degree %d vs %d", v, len(pa), len(pb))
			}
			for i := range pa {
				if pa[i].Node != pb[i].Node || bits(pa[i].Data) != bits(pb[i].Data) {
					return fmt.Errorf("node %d pred %d: %+v vs %+v", v, i, pa[i], pb[i])
				}
			}
		}
		ea, eb := ga.Edges(), gb.Edges()
		for i := range ea {
			if ea[i].From != eb[i].From || ea[i].To != eb[i].To || bits(ea[i].Data) != bits(eb[i].Data) {
				return fmt.Errorf("edge %d: %+v vs %+v", i, ea[i], eb[i])
			}
		}
	}
	if pa, pb := a.Platform, b.Platform; pa != nil {
		if pa.NumProcs() != pb.NumProcs() || pa.Sparse() != pb.Sparse() {
			return fmt.Errorf("platform shape differs")
		}
		for q := 0; q < pa.NumProcs(); q++ {
			if bits(pa.CycleTime(q)) != bits(pb.CycleTime(q)) {
				return fmt.Errorf("cycle %d: %g vs %g", q, pa.CycleTime(q), pb.CycleTime(q))
			}
			for r := 0; r < pa.NumProcs(); r++ {
				if bits(pa.Link(q, r)) != bits(pb.Link(q, r)) {
					return fmt.Errorf("link(%d,%d): %g vs %g", q, r, pa.Link(q, r), pb.Link(q, r))
				}
			}
		}
	}
	return nil
}

// FuzzDecodeRequest is the decoder's differential check: whenever the
// single-pass reader accepts a body, the strict decoder the service falls
// back to accepts it too, and both equal a pure encoding/json reference.
func FuzzDecodeRequest(f *testing.F) {
	for _, body := range wireBodies(f) {
		f.Add(body)
	}
	const g = `{"nodes":[{"weight":1,"label":"a"},{"weight":2}],"edges":[{"From":0,"To":1,"Data":3}]}`
	const p = `{"cycles":[1,2]}`
	for _, body := range []string{
		`{"platform":` + p + `,"options":{"scan_depth":1,"b":2},"model":"macro","graph":` + g + `,"heuristic":"ilha"}`,
		`{"graph":{"edges":[{"Data":3,"To":1,"From":0}],"nodes":[{"label":"a","weight":1},{"weight":2}]},"platform":{"uniform_link":3,"cycles":[2]}}`,
		`{"graph":{"nodes":[{"weight":1},{"weight":2}],"edges":[{"from":0,"to":1,"data":3}]},"platform":` + p + `}`,
		`{"graph":{"nodes":[{"weight":1}],"edges":[],"extra":1},"platform":` + p + `}`,
		`{"graph":` + g + `,"graph":` + g + `,"platform":` + p + `}`,
		`{"graph":{"nodes":[{"weight":1,"weight":2}]},"platform":` + p + `}`,
		`{"graph":{"nodes":[{"weight":1e400}]},"platform":` + p + `}`,
		`{"graph":{"nodes":[{"weight":-0}]},"platform":{"cycles":[-0]}}`,
		`{"graph":{"nodes":[{"weight":-0}]},"platform":{"cycles":[1e-400]}}`,
		`{"graph":{"nodes":[{"weight":01}]},"platform":` + p + `}`,
		`{"graph":` + g + `,"platform":` + p + `,"options":{"b":1.0}}`,
		`{"graph":{"nodes":[{"weight":1,"label":"a\"b\u00e9"}]},"platform":` + p + `}`,
		`{"graph":{"nodes":[{"weight":1,"label":"` + "\u00e9\u2028" + `"}]},"platform":` + p + `}`,
		`{"graph":` + g + `,"platform":` + p + `} trailing`,
		`{"graph":` + g + `,"platform":` + p + `}` + "\n\t ",
		"\ufeff" + `{"graph":` + g + `,"platform":` + p + `}`,
		`{"graph":` + g + `,"platform":{"cycles":[1,1],"link":[[0,null],[1,0]]}}`,
		`{"graph":` + g + `,"platform":{"cycles":[1,1],"link":[[0,1],[1,0]],"uniform_link":1}}`,
		`{"graph":null,"platform":null}`,
		`{"graph":` + g + `,"platform":` + p + `,"options":{"probe_parallelism":-3}}`,
		`{"Graph":` + g + `,"platform":` + p + `}`,
		`{}`, ``, `[]`, `null`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var fast Request
		if !readRequest(body, &fast) {
			return
		}
		var strict Request
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&strict); err != nil {
			t.Fatalf("fast reader accepted what the strict decoder refuses (%v): %q", err, body)
		}
		ref, err := referenceDecode(body)
		if err != nil {
			t.Fatalf("fast reader accepted what the reference refuses (%v): %q", err, body)
		}
		if err := sameRequest(&fast, ref); err != nil {
			t.Fatalf("fast reader and reference differ: %v: %q", err, body)
		}
		if err := sameRequest(&strict, ref); err != nil {
			t.Fatalf("strict decoder and reference differ: %v: %q", err, body)
		}
	})
}

// refSchedule has sched.Schedule's fields and none of its methods, so
// encoding/json encodes it by reflection alone.
type refSchedule sched.Schedule

// refResponse mirrors Response with the schedule encoded by reflection.
// refSessionResponse mirrors SessionResponse the same way.
type refResponse struct {
	Key       string       `json:"key"`
	Heuristic string       `json:"heuristic"`
	Model     string       `json:"model"`
	Tasks     int          `json:"tasks"`
	Makespan  float64      `json:"makespan"`
	Speedup   float64      `json:"speedup"`
	Comms     int          `json:"comms"`
	Cached    bool         `json:"cached"`
	ElapsedNs int64        `json:"elapsed_ns"`
	Schedule  *refSchedule `json:"schedule,omitempty"`
	Error     string       `json:"error,omitempty"`
}

type refSessionResponse struct {
	SessionID string `json:"session_id"`
	Replayed  int    `json:"replayed_tasks"`
	Deltas    int    `json:"deltas"`
	refResponse
}

func toRef(r *Response) refResponse {
	return refResponse{r.Key, r.Heuristic, r.Model, r.Tasks, r.Makespan, r.Speedup, r.Comms,
		r.Cached, r.ElapsedNs, (*refSchedule)(r.Schedule), r.Error}
}

// refEncode is what json.Encoder writes for v: the reference bytes.
func refEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// FuzzEncodeResponse is the encoder's differential check: the append
// encoders write exactly encoding/json's bytes for the same Response and
// SessionResponse, schedule included, and refuse exactly what it refuses.
func FuzzEncodeResponse(f *testing.F) {
	floats := []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 1e20, 1e21, 5e-324, 2.2250738585072014e-308,
		1e-320, 123456.789, 999999999999999, 1e15, -12, 0.1, 1.7976931348623157e308}
	strs := []string{"", "heft", "a<b>&c", "\u2028\u2029", "\xff\xfe", `q"b\s`, "\x00\x1f\x7f", "é"}
	for i, x := range floats {
		y := floats[(i+5)%len(floats)]
		f.Add(strs[i%len(strs)], strs[(i+3)%len(strs)], x, y, -x, 3, i%2 == 0, uint8(i))
	}
	f.Add("k", "e", math.NaN(), 1.0, 2.0, 1, true, uint8(0))
	f.Add("k", "e", 1.0, math.Inf(1), 2.0, 1, false, uint8(1))
	f.Add("k", "e", 1.0, 1.0, math.Inf(-1), 1, false, uint8(7))
	f.Add("a<b>&c", "bad \xff byte  ", 1e-7, 1e21, 5e-324, -4, true, uint8(31))
	f.Fuzz(func(t *testing.T, heur, errStr string, x, y, z float64, n int, cached bool, shape uint8) {
		var s *sched.Schedule
		if shape&1 != 0 {
			s = &sched.Schedule{Procs: n}
			if shape&2 != 0 {
				s.Tasks = []sched.TaskEvent{{Task: n, Proc: -n, Start: x, Finish: y}, {Task: 1, Start: z, Finish: x}}
			}
			if shape&4 != 0 {
				c := sched.CommEvent{FromTask: n, ToTask: 1, Data: z}
				if shape&8 != 0 {
					c.Hops = []sched.Hop{{FromProc: 0, ToProc: n, Start: y, Finish: z}, {Start: x}}
				}
				s.Comms = []sched.CommEvent{c, {Data: y, Hops: []sched.Hop{}}}
			}
		}
		resp := Response{Key: heur + errStr, Heuristic: heur, Model: errStr, Tasks: n, Makespan: x, Speedup: y,
			Comms: -n, Cached: cached, ElapsedNs: int64(n) << 20, Schedule: s}
		if shape&16 != 0 {
			resp.Error = errStr
		}
		check := func(what string, got []byte, gotErr error, ref any) {
			t.Helper()
			want, wantErr := refEncode(ref)
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("%s: append encoder error %v, encoding/json error %v", what, gotErr, wantErr)
			}
			if wantErr == nil && !bytes.Equal(append(got, '\n'), want) {
				t.Fatalf("%s:\n got %s\nwant %s", what, got, want)
			}
		}
		got, _, err := appendResponse(nil, &resp)
		check("Response", got, err, toRef(&resp))
		sr := SessionResponse{SessionID: errStr, Replayed: n, Deltas: -n, Response: resp}
		got, err = appendSessionResponse(nil, &sr)
		check("SessionResponse", got, err, refSessionResponse{sr.SessionID, sr.Replayed, sr.Deltas, toRef(&resp)})
		// the mirror must stay a mirror: the real types, whose schedule
		// encodes through MarshalJSON, give the same bytes
		check("Response via Schedule.MarshalJSON", got, err, &sr)

		miss, hit := encodeEntry(resp)
		if miss == nil {
			return
		}
		resp.Cached = false
		want, _ := refEncode(toRef(&resp))
		resp.Cached = true
		wantHit, _ := refEncode(toRef(&resp))
		if !bytes.Equal(miss, want) || !bytes.Equal(hit, wantHit) {
			t.Fatalf("encodeEntry:\n miss %s\n hit  %s\nwant %s\n     %s", miss, hit, want, wantHit)
		}
	})
}

// TestColdRequestAllocs is the allocation budget of a cold /schedule
// request (decode, key, scheduler run, validate, one encode, cache insert)
// next to TestCacheHitAllocs' hit budget. Every run posts a distinct
// problem, so each one misses the cache. Skipped under -race, whose
// instrumentation allocates.
func TestColdRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const runs = 20
	bodies := make([][]byte, runs+1)
	for i := range bodies {
		g := testbeds.LU(20, 10)
		if err := g.SetWeight(0, float64(100+i)); err != nil {
			t.Fatal(err)
		}
		bodies[i] = mustMarshal(t, Request{Graph: g, Platform: platform.Paper(), Heuristic: "heft"})
	}
	srv := New(Config{PoolSize: 1})
	handler := srv.Handler()
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		code, body := postRaw(handler, bodies[next])
		next++
		if code != http.StatusOK {
			t.Fatalf("cold request answered %d: %.200s", code, body)
		}
	})
	if st := srv.StatsSnapshot(); st.CacheMisses != runs+1 {
		t.Fatalf("%d misses over %d distinct requests", st.CacheMisses, runs+1)
	}
	// 372 allocs measured with go1.24 on LU-20 (209 tasks, HEFT), ~310 of
	// them in the scheduler run and validation; with encoding/json decoding
	// the body and encoding the reply twice the same request cost 1486.
	// The budget leaves ~20% headroom.
	const budget = 450
	if allocs > budget {
		t.Fatalf("cold request costs %.0f allocs, budget %d", allocs, budget)
	}
}

// TestColdPathWireBytes pins every 200 body of the cold path to
// encoding/json's bytes for the same value: /schedule misses, byte-index
// and canonical hits, /cache/peer, and session open, delta and import
// replies, on dense and sparse platforms and several heuristics.
func TestColdPathWireBytes(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	send := func(path string, body []byte, hdr ...string) []byte {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < len(hdr); i += 2 {
			req.Header.Set(hdr[i], hdr[i+1])
		}
		hr, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		var out bytes.Buffer
		if _, err := out.ReadFrom(hr.Body); err != nil {
			t.Fatal(err)
		}
		if hr.StatusCode != http.StatusOK {
			t.Fatalf("%s answered %d: %.200s", path, hr.StatusCode, out.Bytes())
		}
		return out.Bytes()
	}
	asReference := func(what string, body []byte, session bool) {
		t.Helper()
		var want []byte
		var err error
		if session {
			var sr SessionResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatal(err)
			}
			want, err = refEncode(refSessionResponse{sr.SessionID, sr.Replayed, sr.Deltas, toRef(&sr.Response)})
		} else {
			var r Response
			if err := json.Unmarshal(body, &r); err != nil {
				t.Fatal(err)
			}
			want, err = refEncode(toRef(&r))
		}
		if err != nil || !bytes.Equal(body, want) {
			t.Fatalf("%s differs from encoding/json (%v):\n got %.300s\nwant %.300s", what, err, body, want)
		}
	}
	bodies := wireBodies(t)
	for _, name := range []string{"lu/dense", "forkjoin/sparse", "laplace/uniform", "stencil/dense"} {
		body := bodies[name]
		miss := send("/schedule", body)
		asReference(name+" miss", miss, false)
		hit := send("/schedule", body)
		asReference(name+" byte-index hit", hit, false)
		if want := bytes.Replace(miss, []byte(`"cached":false`), []byte(`"cached":true`), 1); !bytes.Equal(hit, want) {
			t.Fatalf("%s: hit is not the miss with cached flipped", name)
		}
		if canon := send("/schedule", append([]byte("\n "), body...)); !bytes.Equal(canon, hit) {
			t.Fatalf("%s: canonical hit differs from the byte-index hit", name)
		}
		peer := send("/cache/peer", bytes.Replace(body, []byte(`"weight":`), []byte(`"weight":0.5e1,"label":"x"}`+`,{"weight":`), 1),
			relay.EpochHeader, "0")
		asReference(name+" /cache/peer miss", peer, false)

		open := send("/session", body)
		asReference(name+" session open", open, true)
		var sr SessionResponse
		if err := json.Unmarshal(open, &sr); err != nil {
			t.Fatal(err)
		}
		delta := send("/session/"+sr.SessionID+"/delta", []byte(`{"graph":[{"op":"set_weight","task":1,"weight":7}]}`))
		asReference(name+" session delta", delta, true)
		ts2 := httptest.NewServer(New(Config{}).Handler())
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/session/"+sr.SessionID+"/export", nil)
		if err != nil {
			t.Fatal(err)
		}
		hr, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		_, err = snap.ReadFrom(hr.Body)
		hr.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		imp, err := http.NewRequest(http.MethodPost, ts2.URL+"/session/peer/import", &snap)
		if err != nil {
			t.Fatal(err)
		}
		imp.Header.Set(relay.EpochHeader, "0")
		hr, err = ts2.Client().Do(imp)
		if err != nil {
			t.Fatal(err)
		}
		var ib bytes.Buffer
		_, err = ib.ReadFrom(hr.Body)
		hr.Body.Close()
		ts2.Close()
		if err != nil || hr.StatusCode != http.StatusOK {
			t.Fatalf("%s import: %d %v %.200s", name, hr.StatusCode, err, ib.Bytes())
		}
		asReference(name+" session import", ib.Bytes(), true)
		if !strings.Contains(ib.String(), `"session_id":"`+sr.SessionID+`"`) {
			t.Fatalf("%s: import reply lost the session id: %.200s", name, ib.Bytes())
		}
	}
}
