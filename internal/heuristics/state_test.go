package heuristics

import (
	"testing"

	"oneport/internal/graph"
	"oneport/internal/platform"
	"oneport/internal/sched"
)

func TestReadyListOrdering(t *testing.T) {
	prio := []float64{5, 9, 9, 1, 7}
	r := newReadyList(prio)
	for v := 0; v < 5; v++ {
		r.push(v)
	}
	// expect priority desc, id asc on ties: 1, 2 (prio 9), 4 (7), 0 (5), 3 (1)
	want := []int{1, 2, 4, 0, 3}
	for i, w := range want {
		if r.empty() {
			t.Fatalf("list empty after %d pops", i)
		}
		if got := r.pop(); got != w {
			t.Fatalf("pop %d = %d, want %d", i, got, w)
		}
	}
	if !r.empty() || r.len() != 0 {
		t.Fatal("list should be empty")
	}
}

func TestReadyListPopN(t *testing.T) {
	prio := []float64{3, 2, 1}
	r := newReadyList(prio)
	for v := 0; v < 3; v++ {
		r.push(v)
	}
	chunk := r.popN(2)
	if len(chunk) != 2 || chunk[0] != 0 || chunk[1] != 1 {
		t.Fatalf("popN(2) = %v, want [0 1]", chunk)
	}
	// popN larger than the list drains it
	rest := r.popN(10)
	if len(rest) != 1 || rest[0] != 2 {
		t.Fatalf("popN(10) = %v, want [2]", rest)
	}
}

func TestReleaser(t *testing.T) {
	g := graph.New(4)
	a := g.AddNode(1, "")
	b := g.AddNode(1, "")
	c := g.AddNode(1, "")
	d := g.AddNode(1, "")
	g.MustEdge(a, c, 1)
	g.MustEdge(b, c, 1)
	g.MustEdge(c, d, 1)
	rl := newReleaser(g)
	init := rl.initial()
	if len(init) != 2 || init[0] != a || init[1] != b {
		t.Fatalf("initial = %v", init)
	}
	if out := rl.release(a); len(out) != 0 {
		t.Fatalf("release(a) = %v, want none (c still blocked)", out)
	}
	if out := rl.release(b); len(out) != 1 || out[0] != c {
		t.Fatalf("release(b) = %v, want [c]", out)
	}
	if out := rl.release(c); len(out) != 1 || out[0] != d {
		t.Fatalf("release(c) = %v, want [d]", out)
	}
	if out := rl.release(d); len(out) != 0 {
		t.Fatalf("release(d) = %v, want none (d is a sink)", out)
	}
}

func TestDominantPredProc(t *testing.T) {
	g := graph.New(4)
	u1 := g.AddNode(1, "")
	u2 := g.AddNode(1, "")
	u3 := g.AddNode(1, "")
	v := g.AddNode(1, "")
	g.MustEdge(u1, v, 1)
	g.MustEdge(u2, v, 1)
	g.MustEdge(u3, v, 1)
	pl, _ := platform.Homogeneous(3)
	s, err := newState(g, pl, sched.OnePort, nil)
	if err != nil {
		t.Fatal(err)
	}
	// two preds on P2, one on P0: dominant = P2 with 1 communication
	s.sch.SetTask(u1, 2, 0, 1)
	s.sch.SetTask(u2, 2, 1, 2)
	s.sch.SetTask(u3, 0, 0, 1)
	proc, comms := dominantPredProc(s, v)
	if proc != 2 || comms != 1 {
		t.Fatalf("dominantPredProc = (%d,%d), want (2,1)", proc, comms)
	}
	// entry tasks have no grouping target
	if p, c := dominantPredProc(s, u1); p != -1 || c != 0 {
		t.Fatalf("entry dominantPredProc = (%d,%d), want (-1,0)", p, c)
	}
}

func TestPredsSortedByFinish(t *testing.T) {
	g := graph.New(3)
	u1 := g.AddNode(1, "")
	u2 := g.AddNode(1, "")
	v := g.AddNode(1, "")
	g.MustEdge(u1, v, 4)
	g.MustEdge(u2, v, 5)
	pl, _ := platform.Homogeneous(2)
	s, err := newState(g, pl, sched.OnePort, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.sch.SetTask(u1, 0, 5, 6) // finishes later
	s.sch.SetTask(u2, 1, 0, 1) // finishes first
	ps := s.preds(v)
	if len(ps) != 2 || ps[0].node != u2 || ps[1].node != u1 {
		t.Fatalf("preds order = %+v, want u2 before u1", ps)
	}
	if ps[0].data != 5 || ps[0].proc != 1 {
		t.Fatalf("pred info wrong: %+v", ps[0])
	}
}

func TestProbePanicsOnUnscheduledPred(t *testing.T) {
	g := graph.New(2)
	u := g.AddNode(1, "")
	v := g.AddNode(1, "")
	g.MustEdge(u, v, 1)
	pl, _ := platform.Homogeneous(1)
	s, err := newState(g, pl, sched.OnePort, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when probing before predecessors are scheduled")
		}
	}()
	s.preds(v)
}

func TestStateCloneIndependence(t *testing.T) {
	g := graph.New(2)
	u := g.AddNode(1, "")
	v := g.AddNode(1, "")
	g.MustEdge(u, v, 2)
	pl, _ := platform.Homogeneous(2)
	s, err := newState(g, pl, sched.OnePort, nil)
	if err != nil {
		t.Fatal(err)
	}
	plc := s.probe(u, 0)
	s.commit(u, plc)
	c := s.clone()
	// schedule v remotely on the clone: real state must stay untouched
	plc2 := c.probe(v, 1)
	c.commit(v, plc2)
	if s.sch.Tasks[v].Done {
		t.Fatal("clone mutation leaked into original schedule")
	}
	if s.send[0].Len() != 0 {
		t.Fatal("clone comm reservation leaked into original timelines")
	}
	if !c.sch.Tasks[v].Done || c.send[0].Len() != 1 {
		t.Fatal("clone did not record its own commit")
	}
}
