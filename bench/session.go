package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"oneport/internal/exp"
	"oneport/internal/graph"
	"oneport/internal/heuristics"
	"oneport/internal/platform"
	"oneport/internal/sched"
	"oneport/internal/service"
	"oneport/internal/service/session"
	"oneport/internal/testbeds"
)

// sessionSpec is one scheduling session of the session workload; kind
// numbers its group of identical sessions.
type sessionSpec struct {
	name string
	g    *graph.Graph
	heur string
	kind int
}

// forkJoinTail is the fork-join with a chain tail the session workload
// streams most deltas at: every path runs through the chain, so the
// commit order is stable and a delta near the tail replays everything
// before it.
func forkJoinTail() *graph.Graph {
	g := testbeds.ForkJoin(300, exp.CommRatio)
	for i := 0; i < 3; i++ {
		g.AddNode(10, "")
		g.MustEdge(g.NumNodes()-2, g.NumNodes()-1, 5)
	}
	return g
}

// sessionSpecs returns the 16 sessions: 8 heft on the fork-join with a
// chain tail, 4 heft on lu30, 2 pct on laplace20, and 2 dls on lu20. DLS
// has no replayable order, so each of its deltas reruns the whole graph.
func sessionSpecs() []sessionSpec {
	var out []sessionSpec
	kinds := 0
	add := func(n int, name string, g *graph.Graph, heur string) {
		for i := 0; i < n; i++ {
			out = append(out, sessionSpec{fmt.Sprintf("%s/%s#%d", name, heur, i), g, heur, kinds})
		}
		kinds++
	}
	add(8, "forkjoin300+tail", forkJoinTail(), "heft")
	add(4, "lu30", testbeds.LU(30, exp.CommRatio), "heft")
	add(2, "laplace20", testbeds.Laplace(20, exp.CommRatio), "pct")
	add(2, "lu20", testbeds.LU(20, exp.CommRatio), "dls")
	return out
}

// delta is one pre-generated session delta.
type delta struct {
	session int
	seq     int // position in its session's delta stream
	class   int // session kind × delta op
	ops     graph.Delta
	body    []byte
	after   *graph.Graph // the session graph once applied; kept for sampled deltas only
}

// genDeltas draws n deltas for the sessions: each block of len(specs)
// holds one per session in seeded order, each applied to a mirror of its
// session's graph so that the next one is valid. 1 in 40 keeps the mirror
// graph it produced, for a check against a cold in-process run.
func genDeltas(rng *rand.Rand, specs []sessionSpec, n int) ([]delta, error) {
	mirror := make([]*graph.Graph, len(specs))
	for i, sp := range specs {
		mirror[i] = sp.g
	}
	out := make([]delta, 0, n+len(specs))
	seqs := make([]int, len(specs))
	for len(out) < n {
		for _, s := range rng.Perm(len(specs)) {
			ops := nextDelta(rng, mirror[s])
			g, _, err := ops.Apply(mirror[s])
			if err != nil {
				return nil, fmt.Errorf("generated delta for %s: %w", specs[s].name, err)
			}
			body, err := json.Marshal(session.Delta{Graph: ops})
			if err != nil {
				return nil, err
			}
			d := delta{session: s, seq: seqs[s], class: 3*specs[s].kind + deltaKinds[ops[0].Op], ops: ops, body: body}
			if rng.Intn(40) == 0 {
				d.after = g
			}
			mirror[s] = g
			seqs[s]++
			out = append(out, d)
		}
	}
	return out[:n], nil
}

// tail returns the last tasks of g by index: the end of the commit order
// for these graphs, so deltas there leave a long prefix to replay.
func tail(g *graph.Graph) []int {
	k := max(3, g.NumNodes()/100)
	out := make([]int, k)
	for i := range out {
		out[i] = g.NumNodes() - k + i
	}
	return out
}

// deltaKinds numbers the first op of each kind of delta nextDelta draws.
var deltaKinds = map[string]int{"set_weight": 0, "add_task": 1, "set_data": 2}

// nextDelta draws one delta for graph g: 70 % set_weight on a tail task,
// 20 % a graft (a new task fed by a tail task), 10 % set_data on an edge
// into a tail task.
func nextDelta(rng *rand.Rand, g *graph.Graph) graph.Delta {
	ip := func(v int) *int { return &v }
	fp := func(v float64) *float64 { return &v }
	t := tail(g)
	v := t[rng.Intn(len(t))]
	switch r := rng.Intn(10); {
	case r < 7:
		return graph.Delta{{Op: "set_weight", Task: ip(v), Weight: fp(float64(1 + rng.Intn(20)))}}
	case r < 9 || g.InDegree(v) == 0:
		w := float64(1 + rng.Intn(20))
		return graph.Delta{
			{Op: "add_task", Weight: fp(w), Label: fmt.Sprintf("graft%d", g.NumNodes())},
			{Op: "add_edge", From: ip(v), To: ip(g.NumNodes()), Data: fp(exp.CommRatio * g.Weight(v))},
		}
	default:
		u := g.Pred(v)[rng.Intn(g.InDegree(v))].Node
		return graph.Delta{{Op: "set_data", From: ip(u), To: ip(v), Data: fp(exp.CommRatio * float64(1+rng.Intn(20)))}}
	}
}

// sessionGate keeps each session's deltas in order: the delta with seq k
// of a session is sent only after seq k-1 was answered, even when two
// workers hold consecutive deltas of one session.
type sessionGate struct {
	mu   sync.Mutex
	cond *sync.Cond
	next []int
}

func newSessionGate(n int) *sessionGate {
	g := &sessionGate{next: make([]int, n)}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *sessionGate) wait(s, seq int) {
	g.mu.Lock()
	for g.next[s] != seq {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

func (g *sessionGate) done(s int) {
	g.mu.Lock()
	g.next[s]++
	g.mu.Unlock()
	g.cond.Broadcast()
}

// sessionRecoveries is how many recoveries each set-up point of the
// session workload times; one takes over half a second.
const sessionRecoveries = 2

// runSession is the session workload: 16 journaled sessions with fsync on
// every append receive a stream of small deltas, re-scheduled by prefix
// replay on warm state. After the warm-up the server is killed with
// SIGKILL and restarted on its journal directory; setup_s is that
// recovery, timed on copies of the journal the kill left.
func runSession(ctx context.Context, h *harness) error {
	const rate = 200.0
	rng := rand.New(rand.NewSource(h.seed))
	specs := sessionSpecs()
	dir, err := h.c.tempDir(h.tmp, "journal-")
	if err != nil {
		return err
	}
	args := func(dir string) []string {
		return []string{"-pool", "2", "-session-journal-dir", dir, "-session-fsync", "always"}
	}
	srv, _, err := h.c.startServer(ctx, h.schedserve, args(dir)...)
	if err != nil {
		return err
	}
	defer func() { srv.kill() }()

	workers := newWorkers(srv)
	defer func() { closeWorkers(workers) }()
	ids := make([]string, len(specs))
	wk := &workers[0]
	for i, sp := range specs {
		body, err := json.Marshal(service.Request{Graph: sp.g, Platform: platform.Paper(), Heuristic: sp.heur, Model: "oneport"})
		if err != nil {
			return err
		}
		if err := wk.conn.post("/session", body, &wk.resp); err != nil {
			return fmt.Errorf("open session %s: %w", sp.name, err)
		}
		var resp service.SessionResponse
		if err := json.Unmarshal(wk.resp.Bytes(), &resp); err != nil {
			return fmt.Errorf("open session %s: %w", sp.name, err)
		}
		ids[i] = resp.SessionID
	}

	maxDeltas := int((h.warmDur()+h.openDur()).Seconds()*rate*1.5) + int(h.closedDur().Seconds()*1500)
	deltas, err := genDeltas(rng, specs, maxDeltas)
	if err != nil {
		return err
	}

	gate := newSessionGate(len(specs))
	makespans := make([]float64, len(deltas)) // sampled deltas only
	var replayed, tasks atomic.Int64
	next := 0
	op := func(w, i int) outcome {
		n := next + i
		if n >= len(deltas) {
			return outcome{}
		}
		d := &deltas[n]
		gate.wait(d.session, d.seq)
		defer gate.done(d.session)
		wk := &workers[w]
		if err := wk.conn.post("/session/"+ids[d.session]+"/delta", d.body, &wk.resp); err != nil {
			h.fail("session %s delta %d: %v", specs[d.session].name, d.seq, err)
			return outcome{}
		}
		mk, ok1 := jsonNumber(wk.resp.Bytes(), "makespan")
		rp, ok2 := jsonNumber(wk.resp.Bytes(), "replayed_tasks")
		nt, ok3 := jsonNumber(wk.resp.Bytes(), "tasks")
		if !ok1 || !ok2 || !ok3 {
			h.fail("session %s delta %d: response lacks makespan/replayed_tasks/tasks", specs[d.session].name, d.seq)
			return outcome{}
		}
		if d.after != nil {
			makespans[n] = mk
		}
		replayed.Add(int64(rp))
		tasks.Add(int64(nt))
		return outcome{class: d.class, tasks: int(nt), ok: true}
	}
	// after the warm-up: SIGKILL, keep a copy of the journal as the kill
	// left it, and restart on the journal
	var snap string
	startN := 0
	warmed := func() error {
		srv.kill()
		var err error
		if snap, err = h.c.tempDir(h.tmp, "snapshot-"); err != nil {
			return err
		}
		if err := copyDir(snap, dir); err != nil {
			return err
		}
		s, _, err := h.c.startServer(ctx, h.schedserve, args(dir)...)
		if err != nil {
			return fmt.Errorf("restart on the journal: %w", err)
		}
		srv = s
		closeWorkers(workers)
		workers = newWorkers(srv)
		startN = next
		replayed.Store(0)
		tasks.Store(0)
		return h.recovered(srv, len(specs))
	}
	// a set-up point recovers fresh copies of that journal in spare servers
	st := &setupTimes{what: "journal recoveries", rounds: sessionRecoveries}
	recovery := func() (time.Duration, error) {
		cp, err := h.c.tempDir(h.tmp, "recover-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(cp)
		if err := copyDir(cp, snap); err != nil {
			return 0, err
		}
		s, d, err := h.c.startServer(ctx, h.schedserve, args(cp)...)
		if err != nil {
			return 0, fmt.Errorf("recover a copy of the journal: %w", err)
		}
		defer s.kill()
		return d, h.recovered(s, len(specs))
	}
	point := func() error { return st.point(recovery) }
	open, closed, err := h.measureHTTP(rng, rate, len(deltas), "http.delta", op, &next, warmed, point)
	if err != nil {
		return err
	}
	if next >= len(deltas) {
		h.fail("session ran out of pre-generated deltas")
	}
	h.setup(st)
	if err := h.httpResult(srv, open, closed); err != nil {
		return err
	}
	h.notef("session: measured deltas replayed %.1f%% of their tasks", 100*float64(replayed.Load())/float64(tasks.Load()))
	stats, err := srv.stats()
	if err != nil {
		return err
	}
	if stats.SessionDeltas != int64(next-startN) {
		h.fail("/stats counted %d deltas since the restart, the client sent %d", stats.SessionDeltas, next-startN)
	}

	// a sampled delta's makespan must equal a cold run on the mirror graph
	checked := 0
	for n := 0; n < next; n++ {
		d := &deltas[n]
		if d.after == nil {
			continue
		}
		// sessions run at the server's default probe parallelism of 1
		fn, err := heuristics.ByNameTuned(specs[d.session].heur, heuristics.ILHAOptions{}, &heuristics.Tuning{ProbeParallelism: 1})
		if err != nil {
			return err
		}
		s, err := fn(d.after, platform.Paper(), sched.OnePort)
		if err != nil {
			h.fail("session %s delta %d: cold run: %v", specs[d.session].name, d.seq, err)
			continue
		}
		if math.Float64bits(s.Makespan()) != math.Float64bits(makespans[n]) {
			h.fail("session %s delta %d: served makespan %v, cold run %v", specs[d.session].name, d.seq, makespans[n], s.Makespan())
		}
		checked++
	}
	h.notef("session: %d deltas, %d re-checked against cold runs", next, checked)
	return nil
}

// recovered checks that srv recovered all n sessions from its journal.
func (h *harness) recovered(srv *server, n int) error {
	st, err := srv.stats()
	if err != nil {
		return err
	}
	if st.SessionsRecovered != int64(n) || st.SessionRecoveryFailed != 0 {
		h.fail("a restart recovered %d sessions (%d failed), want %d", st.SessionsRecovered, st.SessionRecoveryFailed, n)
	}
	return nil
}
