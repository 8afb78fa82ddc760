package session

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"oneport/internal/graph"
	"oneport/internal/heuristics"
	"oneport/internal/platform"
	"oneport/internal/sched"
	"oneport/internal/testbeds"
)

func fptr(v float64) *float64 { return &v }
func iptr(v int) *int         { return &v }

func openParams(g *graph.Graph, pl *platform.Platform, heur string) Params {
	return Params{Graph: g, Platform: pl, Heuristic: heur, Model: sched.OnePort}
}

// sameJSON asserts two schedules are byte-identical through the wire
// encoding — the exact equality the subsystem promises to HTTP clients.
func sameJSON(t *testing.T, want, got *sched.Schedule) {
	t.Helper()
	wb, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(wb) != string(gb) {
		t.Fatalf("schedules differ:\nwant %s\ngot  %s", wb, gb)
	}
}

func coldSchedule(t *testing.T, heur string, g *graph.Graph, pl *platform.Platform, model sched.Model) *sched.Schedule {
	t.Helper()
	f, err := heuristics.ByName(heur, heuristics.ILHAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sch, err := f(g, pl, model)
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

// TestSessionOracle drives a session through a chain of graph deltas and
// checks after each one that the warm incremental schedule is byte-identical
// to a cold /schedule-equivalent run on the same final graph.
func TestSessionOracle(t *testing.T) {
	for _, heur := range []string{"heft", "bil", "dls"} {
		t.Run(heur, func(t *testing.T) {
			m := NewManager(Config{})
			g, pl := testbeds.LU(8, 10), platform.Paper()
			id, info, err := m.Open(context.Background(), openParams(g, pl, heur))
			if err != nil {
				t.Fatal(err)
			}
			sameJSON(t, coldSchedule(t, heur, g, pl, sched.OnePort), info.Schedule)

			e := g.Edges()[g.NumEdges()/2]
			deltas := []Delta{
				{Graph: graph.Delta{{Op: "set_weight", Task: iptr(g.NumNodes() / 2), Weight: fptr(11)}}},
				{Graph: graph.Delta{{Op: "set_data", From: iptr(e.From), To: iptr(e.To), Data: fptr(e.Data + 4)}}},
				{Graph: graph.Delta{
					{Op: "add_task", Weight: fptr(6)},
					{Op: "add_edge", From: iptr(0), To: iptr(g.NumNodes()), Data: fptr(2)},
				}},
			}
			cur := g
			for di, d := range deltas {
				ng, _, err := d.Graph.Apply(cur)
				if err != nil {
					t.Fatalf("delta %d: %v", di, err)
				}
				info, err := m.Delta(context.Background(), id, d)
				if err != nil {
					t.Fatalf("delta %d: %v", di, err)
				}
				if info.Deltas != di+1 {
					t.Errorf("delta %d: Deltas = %d, want %d", di, info.Deltas, di+1)
				}
				sameJSON(t, coldSchedule(t, heur, ng, pl, sched.OnePort), info.Schedule)
				cur = ng
			}
			st := m.StatsSnapshot()
			if st.Open != 1 || st.Deltas != 3 || st.Opened != 1 {
				t.Errorf("stats = %+v, want 1 open / 3 deltas / 1 opened", st)
			}
			if heur == "heft" && st.ReplayedTasks == 0 {
				t.Error("heft session replayed no tasks across localized deltas")
			}
			if heur == "dls" && st.ReplayedTasks != 0 {
				t.Errorf("dls session claims %d replayed tasks, want 0 (full recompute fallback)", st.ReplayedTasks)
			}
			if st.Bytes <= 0 {
				t.Errorf("sessions_bytes = %d, want > 0", st.Bytes)
			}
		})
	}
}

// TestSessionPlatformDelta: a platform change invalidates everything — the
// next run replays nothing and matches a cold run on the grown platform.
func TestSessionPlatformDelta(t *testing.T) {
	m := NewManager(Config{})
	g, pl := testbeds.ForkJoin(20, 10), platform.Paper()
	id, _, err := m.Open(context.Background(), openParams(g, pl, "heft"))
	if err != nil {
		t.Fatal(err)
	}
	d := Delta{Platform: platform.Delta{{Op: "add_proc", Cycle: fptr(8), Link: fptr(1)}}}
	npl, err := d.Platform.Apply(pl)
	if err != nil {
		t.Fatal(err)
	}
	info, err := m.Delta(context.Background(), id, d)
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != 0 {
		t.Errorf("platform delta replayed %d tasks, want 0", info.Replayed)
	}
	if info.Procs != npl.NumProcs() {
		t.Errorf("Procs = %d, want %d", info.Procs, npl.NumProcs())
	}
	sameJSON(t, coldSchedule(t, "heft", g, npl, sched.OnePort), info.Schedule)

	// and a follow-up graph delta on the new platform replays again
	d2 := Delta{Graph: graph.Delta{{Op: "set_weight", Task: iptr(g.NumNodes() - 1), Weight: fptr(9)}}}
	ng, _, err := d2.Graph.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	info, err = m.Delta(context.Background(), id, d2)
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed == 0 {
		t.Error("graph delta after platform delta replayed nothing")
	}
	sameJSON(t, coldSchedule(t, "heft", ng, npl, sched.OnePort), info.Schedule)
}

// TestSessionAdversarialDeltas: invalid deltas — cycles, dangling
// endpoints, duplicate edges, orphaning processor removals, empty batches —
// are rejected with errors, and the session keeps serving good deltas with
// unchanged state afterwards.
func TestSessionAdversarialDeltas(t *testing.T) {
	m := NewManager(Config{})
	g, pl := testbeds.LU(6, 10), platform.Paper()
	id, _, err := m.Open(context.Background(), openParams(g, pl, "heft"))
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name string
		d    Delta
	}{
		{"empty", Delta{}},
		{"cycle", Delta{Graph: graph.Delta{{Op: "add_edge", From: iptr(g.NumNodes() - 1), To: iptr(0), Data: fptr(1)}}}},
		{"unknown task", Delta{Graph: graph.Delta{{Op: "set_weight", Task: iptr(10_000), Weight: fptr(1)}}}},
		{"dangling edge", Delta{Graph: graph.Delta{{Op: "add_edge", From: iptr(0), To: iptr(10_000), Data: fptr(1)}}}},
		{"duplicate edge", Delta{Graph: graph.Delta{{Op: "add_edge", From: iptr(g.Edges()[0].From), To: iptr(g.Edges()[0].To), Data: fptr(1)}}}},
		{"unknown proc", Delta{Platform: platform.Delta{{Op: "set_cycle", Proc: iptr(99), Cycle: fptr(1)}}}},
		{"remove all procs", Delta{Platform: platform.Delta{
			{Op: "remove_proc", Proc: iptr(0)}, {Op: "remove_proc", Proc: iptr(0)}, {Op: "remove_proc", Proc: iptr(0)},
			{Op: "remove_proc", Proc: iptr(0)}, {Op: "remove_proc", Proc: iptr(0)}, {Op: "remove_proc", Proc: iptr(0)},
			{Op: "remove_proc", Proc: iptr(0)}, {Op: "remove_proc", Proc: iptr(0)}, {Op: "remove_proc", Proc: iptr(0)},
			{Op: "remove_proc", Proc: iptr(0)},
		}}},
		{"half bad batch", Delta{Graph: graph.Delta{
			{Op: "add_task", Weight: fptr(1)},
			{Op: "add_edge", From: iptr(g.NumNodes()), To: iptr(g.NumNodes()), Data: fptr(1)},
		}}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := m.Delta(context.Background(), id, tc.d); err == nil {
				t.Fatal("bad delta accepted")
			}
		})
	}
	// the session survives with its original state: a good delta still
	// produces the oracle schedule for original-graph + this-delta
	d := Delta{Graph: graph.Delta{{Op: "set_weight", Task: iptr(1), Weight: fptr(5)}}}
	ng, _, err := d.Graph.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	info, err := m.Delta(context.Background(), id, d)
	if err != nil {
		t.Fatalf("good delta after bad ones: %v", err)
	}
	if info.Deltas != 1 {
		t.Errorf("Deltas = %d, want 1 (failed deltas must not count)", info.Deltas)
	}
	sameJSON(t, coldSchedule(t, "heft", ng, pl, sched.OnePort), info.Schedule)
}

// TestSessionTableFull: a table at capacity with no expirable sessions
// rejects opens with ErrFull; closing a session frees the slot.
func TestSessionTableFull(t *testing.T) {
	m := NewManager(Config{MaxSessions: 2})
	g, pl := testbeds.ForkJoin(5, 10), platform.Paper()
	id1, _, err := m.Open(context.Background(), openParams(g, pl, "heft"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Open(context.Background(), openParams(g, pl, "heft")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Open(context.Background(), openParams(g, pl, "heft")); !errors.Is(err, ErrFull) {
		t.Fatalf("third open: err = %v, want ErrFull", err)
	}
	if s := m.RetryAfterSeconds(); s < 1 {
		t.Errorf("RetryAfterSeconds = %d, want >= 1", s)
	}
	if err := m.Close(id1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Open(context.Background(), openParams(g, pl, "heft")); err != nil {
		t.Fatalf("open after close: %v", err)
	}
	if err := m.Close("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("close unknown: err = %v, want ErrNotFound", err)
	}
	if _, err := m.Delta(context.Background(), id1, Delta{Graph: graph.Delta{{Op: "add_task", Weight: fptr(1)}}}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delta to closed session: err = %v, want ErrNotFound", err)
	}
}

// TestSessionTTLEviction drives the injected clock past the TTL and checks
// that Open sweeps idle sessions (and counts them), while a touched session
// survives.
func TestSessionTTLEviction(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	m := NewManager(Config{MaxSessions: 2, TTL: time.Minute, Now: clock})
	g, pl := testbeds.ForkJoin(5, 10), platform.Paper()
	idle, _, err := m.Open(context.Background(), openParams(g, pl, "heft"))
	if err != nil {
		t.Fatal(err)
	}
	live, _, err := m.Open(context.Background(), openParams(g, pl, "heft"))
	if err != nil {
		t.Fatal(err)
	}
	// keep one session warm past the idle horizon, let the other go stale
	advance(40 * time.Second)
	if _, err := m.Delta(context.Background(), live, Delta{Graph: graph.Delta{{Op: "set_weight", Task: iptr(0), Weight: fptr(2)}}}); err != nil {
		t.Fatal(err)
	}
	advance(40 * time.Second) // idle: 80s > TTL; live: 40s < TTL
	id3, _, err := m.Open(context.Background(), openParams(g, pl, "heft"))
	if err != nil {
		t.Fatalf("open should have evicted the stale session: %v", err)
	}
	st := m.StatsSnapshot()
	if st.Evictions != 1 || st.Open != 2 {
		t.Fatalf("stats = %+v, want 1 eviction / 2 open", st)
	}
	if _, err := m.Delta(context.Background(), idle, Delta{Graph: graph.Delta{{Op: "set_weight", Task: iptr(0), Weight: fptr(3)}}}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delta to evicted session: err = %v, want ErrNotFound", err)
	}
	if _, err := m.Delta(context.Background(), live, Delta{Graph: graph.Delta{{Op: "set_weight", Task: iptr(0), Weight: fptr(4)}}}); err != nil {
		t.Fatalf("survivor session: %v", err)
	}
	_ = id3
}

// TestSessionNeverExpire: a negative TTL disables eviction entirely.
func TestSessionNeverExpire(t *testing.T) {
	now := time.Unix(1000, 0)
	m := NewManager(Config{MaxSessions: 1, TTL: -1, Now: func() time.Time { return now }})
	g, pl := testbeds.ForkJoin(5, 10), platform.Paper()
	if _, _, err := m.Open(context.Background(), openParams(g, pl, "heft")); err != nil {
		t.Fatal(err)
	}
	now = now.Add(1000 * time.Hour)
	if _, _, err := m.Open(context.Background(), openParams(g, pl, "heft")); !errors.Is(err, ErrFull) {
		t.Fatalf("err = %v, want ErrFull (no eviction with TTL < 0)", err)
	}
	if m.RetryAfterSeconds() < 1 {
		t.Error("RetryAfterSeconds < 1")
	}
}

// TestSessionCancellation: an already-expired context surfaces the
// heuristics cancellation error and leaves the session consistent.
func TestSessionCancellation(t *testing.T) {
	m := NewManager(Config{})
	g, pl := testbeds.LU(10, 10), platform.Paper()
	id, _, err := m.Open(context.Background(), openParams(g, pl, "heft"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := Delta{Graph: graph.Delta{{Op: "set_weight", Task: iptr(0), Weight: fptr(2)}}}
	if _, err := m.Delta(ctx, id, d); !errors.Is(err, heuristics.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	// the session still answers with its pre-cancel state intact
	ng, _, err := d.Graph.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	info, err := m.Delta(context.Background(), id, d)
	if err != nil {
		t.Fatal(err)
	}
	sameJSON(t, coldSchedule(t, "heft", ng, pl, sched.OnePort), info.Schedule)
}

// TestSessionConcurrentDeltas hammers one session from many goroutines —
// the per-session mutex must serialize them (checked under -race), every
// delta must land, and the final state must equal the cold run on the graph
// with all deltas applied (the ops commute: distinct tasks re-weighted).
func TestSessionConcurrentDeltas(t *testing.T) {
	m := NewManager(Config{})
	g, pl := testbeds.ForkJoin(30, 10), platform.Paper()
	id, _, err := m.Open(context.Background(), openParams(g, pl, "heft"))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d := Delta{Graph: graph.Delta{{Op: "set_weight", Task: iptr(w + 1), Weight: fptr(float64(50 + w))}}}
			_, errs[w] = m.Delta(context.Background(), id, d)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	// one more serialized delta so the compared result is deterministic
	final := g.Clone()
	for w := 0; w < workers; w++ {
		if err := final.SetWeight(w+1, float64(50+w)); err != nil {
			t.Fatal(err)
		}
	}
	d := Delta{Graph: graph.Delta{{Op: "set_weight", Task: iptr(0), Weight: fptr(99)}}}
	if err := final.SetWeight(0, 99); err != nil {
		t.Fatal(err)
	}
	info, err := m.Delta(context.Background(), id, d)
	if err != nil {
		t.Fatal(err)
	}
	if info.Deltas != workers+1 {
		t.Errorf("Deltas = %d, want %d", info.Deltas, workers+1)
	}
	sameJSON(t, coldSchedule(t, "heft", final, pl, sched.OnePort), info.Schedule)
}

// TestSessionConcurrentOpenCloseDelta races opens, deltas and closes across
// a small table — exercising sweep, lookup and drop interleavings under
// -race. Only invariants are checked: no panics, errors limited to the
// expected sentinels.
func TestSessionConcurrentOpenCloseDelta(t *testing.T) {
	m := NewManager(Config{MaxSessions: 4})
	g, pl := testbeds.ForkJoin(10, 10), platform.Paper()
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				id, _, err := m.Open(context.Background(), openParams(g, pl, "heft"))
				if errors.Is(err, ErrFull) {
					continue
				}
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				d := Delta{Graph: graph.Delta{{Op: "set_weight", Task: iptr(i % g.NumNodes()), Weight: fptr(float64(2 + w))}}}
				if _, err := m.Delta(context.Background(), id, d); err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("delta: %v", err)
					return
				}
				if err := m.Close(id); err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("close: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := m.StatsSnapshot(); st.Open != 0 || st.Bytes != 0 {
		t.Errorf("after close-all: %+v, want 0 open / 0 bytes", st)
	}
}

// BenchmarkSessionDelta pins the subsystem's reason to exist: a small delta
// against a warm 300+-node session re-schedules via prefix replay, versus a
// cold full run of the same heuristic on the same graph.
func BenchmarkSessionDelta(b *testing.B) {
	// a fork-join with a short chain tail: every path runs through each
	// tail task, so re-weighting the last one shifts every bottom level
	// uniformly — the commit order is stable and everything except that
	// task replays — while the dirty task itself has in-degree 1, so its
	// re-probe is cheap. The cold run must re-probe all tasks, including
	// the 300-predecessor join.
	g := testbeds.ForkJoin(300, 10)
	for i := 0; i < 3; i++ {
		g.AddNode(10, "")
		g.MustEdge(g.NumNodes()-2, g.NumNodes()-1, 5)
	}
	pl := platform.Paper()
	n := g.NumNodes()
	if n < 300 {
		b.Fatalf("graph has %d nodes, want >= 300", n)
	}
	model := sched.OnePort

	b.Run("warm", func(b *testing.B) {
		m := NewManager(Config{})
		id, _, err := m.Open(context.Background(), openParams(g, pl, "heft"))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d := Delta{Graph: graph.Delta{{Op: "set_weight", Task: iptr(n - 1), Weight: fptr(float64(10 + i%7))}}}
			info, err := m.Delta(context.Background(), id, d)
			if err != nil {
				b.Fatal(err)
			}
			if info.Replayed < n-1 {
				b.Fatalf("replayed %d of %d, want >= %d", info.Replayed, n, n-1)
			}
		}
	})

	b.Run("cold", func(b *testing.B) {
		tune := &heuristics.Tuning{Scratch: heuristics.NewScratch()}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ng := g.Clone()
			if err := ng.SetWeight(n-1, float64(10+i%7)); err != nil {
				b.Fatal(err)
			}
			res, err := heuristics.RunIncremental("heft", ng, pl, model, heuristics.ILHAOptions{}, tune, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			if res.Replayed != 0 {
				b.Fatal("cold run replayed tasks")
			}
		}
	})
}

var _ = fmt.Sprintf // keep fmt for debug edits
