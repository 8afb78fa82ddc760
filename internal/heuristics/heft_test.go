package heuristics

import (
	"math/rand"
	"testing"
	"testing/quick"

	"oneport/internal/graph"
	"oneport/internal/platform"
	"oneport/internal/sched"
)

// fig1Fork builds the example of the paper's Figure 1: a fork with parent v0
// and six children, all weights 1, all data volumes 1, scheduled on five
// same-speed processors with unit links.
func fig1Fork(t *testing.T) (*graph.Graph, *platform.Platform) {
	t.Helper()
	g := graph.New(7)
	v0 := g.AddNode(1, "v0")
	for i := 1; i <= 6; i++ {
		vi := g.AddNode(1, "v")
		g.MustEdge(v0, vi, 1)
	}
	pl, err := platform.Homogeneous(5)
	if err != nil {
		t.Fatal(err)
	}
	return g, pl
}

func TestFigure1Example(t *testing.T) {
	g, pl := fig1Fork(t)

	macro, err := HEFT(g, pl, sched.MacroDataflow)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, pl, macro, sched.MacroDataflow); err != nil {
		t.Fatalf("macro schedule invalid: %v", err)
	}
	// §2.3: under macro-dataflow the makespan is 3
	if macro.Makespan() != 3 {
		t.Errorf("macro-dataflow HEFT makespan = %g, want 3", macro.Makespan())
	}

	oneport, err := HEFT(g, pl, sched.OnePort)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, pl, oneport, sched.OnePort); err != nil {
		t.Fatalf("one-port schedule invalid: %v", err)
	}
	// §2.3: the optimal one-port makespan is 5 (macro allocation gives >= 6);
	// serializing the sends makes the parent the bottleneck.
	if oneport.Makespan() != 5 {
		t.Errorf("one-port HEFT makespan = %g, want optimal 5", oneport.Makespan())
	}
}

// toyExample builds the DAG of the paper's Figure 3: two sources a0 and b0;
// a0 feeds a1,a2,a3,ab1,ab2; b0 feeds b1,b2,b3,ab1,ab2; all computation and
// communication costs 1; two same-speed processors.
func toyExample(t *testing.T) (*graph.Graph, *platform.Platform) {
	t.Helper()
	g := graph.New(10)
	a0 := g.AddNode(1, "a0")
	a1 := g.AddNode(1, "a1")
	a2 := g.AddNode(1, "a2")
	a3 := g.AddNode(1, "a3")
	ab1 := g.AddNode(1, "ab1")
	ab2 := g.AddNode(1, "ab2")
	b0 := g.AddNode(1, "b0")
	b1 := g.AddNode(1, "b1")
	b2 := g.AddNode(1, "b2")
	b3 := g.AddNode(1, "b3")
	for _, c := range []int{a1, a2, a3, ab1, ab2} {
		g.MustEdge(a0, c, 1)
	}
	for _, c := range []int{b1, b2, b3, ab1, ab2} {
		g.MustEdge(b0, c, 1)
	}
	pl, err := platform.Homogeneous(2)
	if err != nil {
		t.Fatal(err)
	}
	return g, pl
}

func TestToyExampleILHAvsHEFT(t *testing.T) {
	g, pl := toyExample(t)
	heft, err := HEFT(g, pl, sched.OnePort)
	if err != nil {
		t.Fatal(err)
	}
	ilha, err := ILHA(g, pl, sched.OnePort, ILHAOptions{B: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*sched.Schedule{heft, ilha} {
		if err := sched.Validate(g, pl, s, sched.OnePort); err != nil {
			t.Fatalf("invalid schedule: %v", err)
		}
	}
	// §4.4: ILHA's global view groups the a-children on a0's processor and
	// the b-children on b0's, cutting communications; the makespan is no
	// worse.
	if ilha.CommCount() >= heft.CommCount() {
		t.Errorf("ILHA comms = %d, HEFT comms = %d: want strictly fewer",
			ilha.CommCount(), heft.CommCount())
	}
	if ilha.Makespan() > heft.Makespan() {
		t.Errorf("ILHA makespan = %g > HEFT makespan = %g", ilha.Makespan(), heft.Makespan())
	}
}

func TestHEFTSingleProcessorIsSequential(t *testing.T) {
	g := chain(t, 5)
	pl, err := platform.Uniform([]float64{2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := HEFT(g, pl, sched.OnePort)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, pl, s, sched.OnePort); err != nil {
		t.Fatal(err)
	}
	if want := g.TotalWeight() * 2; s.Makespan() != want {
		t.Errorf("makespan = %g, want %g", s.Makespan(), want)
	}
	if s.CommCount() != 0 {
		t.Errorf("single processor produced %d comms", s.CommCount())
	}
}

// chain builds a linear chain of n unit tasks with unit data edges.
func chain(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g := graph.New(n)
	prev := g.AddNode(1, "t0")
	for i := 1; i < n; i++ {
		v := g.AddNode(1, "t")
		g.MustEdge(prev, v, 1)
		prev = v
	}
	return g
}

func TestHEFTChainStaysOnOneProcessor(t *testing.T) {
	// with communication cost comparable to execution, a chain should never
	// migrate: EFT keeps it on the processor holding the predecessor.
	g := chain(t, 10)
	pl := platform.Paper()
	s, err := HEFT(g, pl, sched.OnePort)
	if err != nil {
		t.Fatal(err)
	}
	first := s.Proc(0)
	if first != pl.FastestProc() {
		t.Errorf("chain starts on processor %d, want fastest %d", first, pl.FastestProc())
	}
	for v := 1; v < g.NumNodes(); v++ {
		if s.Proc(v) != first {
			t.Errorf("chain task %d migrated to %d", v, s.Proc(v))
		}
	}
	if s.CommCount() != 0 {
		t.Errorf("chain produced %d communications", s.CommCount())
	}
}

func TestHEFTHeterogeneousPrefersFasterProc(t *testing.T) {
	// independent tasks, no comms: EFT spreads by speed
	g := graph.New(4)
	for i := 0; i < 4; i++ {
		g.AddNode(1, "t")
	}
	pl, err := platform.Uniform([]float64{1, 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := HEFT(g, pl, sched.OnePort)
	if err != nil {
		t.Fatal(err)
	}
	// finishing times on P0 alone: 1,2,3,4; on P1 a task takes 10.
	// so all four tasks go to P0.
	for v := 0; v < 4; v++ {
		if s.Proc(v) != 0 {
			t.Errorf("task %d on %d, want 0", v, s.Proc(v))
		}
	}
	if s.Makespan() != 4 {
		t.Errorf("makespan = %g, want 4", s.Makespan())
	}
}

func TestHEFTRejectsCyclicGraph(t *testing.T) {
	g := graph.New(2)
	a := g.AddNode(1, "")
	b := g.AddNode(1, "")
	g.MustEdge(a, b, 1)
	g.MustEdge(b, a, 1)
	pl, _ := platform.Homogeneous(2)
	if _, err := HEFT(g, pl, sched.OnePort); err == nil {
		t.Fatal("expected error on cyclic graph")
	}
	if _, err := ILHA(g, pl, sched.OnePort, ILHAOptions{}); err == nil {
		t.Fatal("expected ILHA error on cyclic graph")
	}
	if _, err := DLS(g, pl, sched.OnePort); err == nil {
		t.Fatal("expected DLS error on cyclic graph")
	}
}

// randomLayeredDAG builds a random DAG for property testing.
func randomLayeredDAG(r *rand.Rand, maxNodes int) *graph.Graph {
	n := 2 + r.Intn(maxNodes)
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(float64(1+r.Intn(5)), "")
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Intn(3) == 0 {
				g.MustEdge(u, v, float64(r.Intn(8)))
			}
		}
	}
	return g
}

func randomPlatform(r *rand.Rand) *platform.Platform {
	p := 1 + r.Intn(5)
	cycles := make([]float64, p)
	for i := range cycles {
		cycles[i] = float64(1 + r.Intn(6))
	}
	pl, err := platform.Uniform(cycles, float64(1+r.Intn(4)))
	if err != nil {
		panic(err)
	}
	return pl
}

func TestPropertyHEFTSchedulesAreValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomLayeredDAG(r, 30)
		pl := randomPlatform(r)
		for _, model := range []sched.Model{sched.MacroDataflow, sched.OnePort} {
			s, err := HEFT(g, pl, model)
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			if err := sched.Validate(g, pl, s, model); err != nil {
				t.Logf("seed %d model %v: %v", seed, model, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyILHASchedulesAreValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomLayeredDAG(r, 30)
		pl := randomPlatform(r)
		opts := ILHAOptions{
			B:               1 + r.Intn(12),
			ScanDepth:       r.Intn(2),
			CapStep2:        r.Intn(2) == 0,
			RescheduleComms: r.Intn(3) == 0,
		}
		for _, model := range []sched.Model{sched.MacroDataflow, sched.OnePort} {
			s, err := ILHA(g, pl, model, opts)
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			if err := sched.Validate(g, pl, s, model); err != nil {
				t.Logf("seed %d model %v opts %+v: %v", seed, model, opts, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMakespanLowerBound(t *testing.T) {
	// any valid schedule's makespan is at least the critical path weight
	// divided by the fastest speed, and at least total weight / Σ(1/t_i)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomLayeredDAG(r, 25)
		pl := randomPlatform(r)
		s, err := HEFT(g, pl, sched.OnePort)
		if err != nil {
			return false
		}
		cp, err := g.CriticalPathWeight()
		if err != nil {
			return false
		}
		lb1 := cp * pl.CycleTime(pl.FastestProc())
		lb2 := g.TotalWeight() / pl.InvSpeedSum()
		m := s.Makespan()
		return m >= lb1-1e-9 && m >= lb2-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestILHAOptionValidation(t *testing.T) {
	g := chain(t, 3)
	pl, _ := platform.Homogeneous(2)
	if _, err := ILHA(g, pl, sched.OnePort, ILHAOptions{B: -1}); err == nil {
		t.Error("expected error for negative B")
	}
	if _, err := ILHA(g, pl, sched.OnePort, ILHAOptions{ScanDepth: -1}); err == nil {
		t.Error("expected error for negative ScanDepth")
	}
	// B smaller than proc count is clamped, not an error
	if _, err := ILHA(g, pl, sched.OnePort, ILHAOptions{B: 1}); err != nil {
		t.Errorf("B=1 should be clamped, got %v", err)
	}
}

func TestILHADefaultBUsesPerfectBalance(t *testing.T) {
	// on the paper platform the default B is 38; just exercise the default
	// path end to end on a small graph.
	g, _ := toyExample(t)
	pl := platform.Paper()
	s, err := ILHA(g, pl, sched.OnePort, ILHAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, pl, s, sched.OnePort); err != nil {
		t.Fatal(err)
	}
}

func TestILHARescheduleCommsKeepsAllocation(t *testing.T) {
	g, pl := toyExample(t)
	base, err := ILHA(g, pl, sched.OnePort, ILHAOptions{B: 8})
	if err != nil {
		t.Fatal(err)
	}
	resch, err := ILHA(g, pl, sched.OnePort, ILHAOptions{B: 8, RescheduleComms: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, pl, resch, sched.OnePort); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumNodes(); v++ {
		if base.Proc(v) != resch.Proc(v) {
			t.Errorf("task %d allocation changed by rescheduling: %d vs %d",
				v, base.Proc(v), resch.Proc(v))
		}
	}
}

func TestHeuristicsDeterministic(t *testing.T) {
	// every registered heuristic is a pure function of its inputs: two runs
	// on the same graph and platform produce identical schedules.
	g := testbedGraphForDeterminism(t)
	pl := platform.Paper()
	for _, name := range Names() {
		f, err := ByName(name, ILHAOptions{B: 7, ScanDepth: 1})
		if err != nil {
			t.Fatal(err)
		}
		a, err := f(g, pl, sched.OnePort)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := f(g, pl, sched.OnePort)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Makespan() != b.Makespan() || a.CommCount() != b.CommCount() {
			t.Errorf("%s: nondeterministic (%g/%d vs %g/%d)",
				name, a.Makespan(), a.CommCount(), b.Makespan(), b.CommCount())
		}
		for v := 0; v < g.NumNodes(); v++ {
			if a.Proc(v) != b.Proc(v) || a.Tasks[v].Start != b.Tasks[v].Start {
				t.Errorf("%s: task %d differs between runs", name, v)
				break
			}
		}
	}
}

func testbedGraphForDeterminism(t *testing.T) *graph.Graph {
	t.Helper()
	r := rand.New(rand.NewSource(99))
	return randomLayeredDAG(r, 24)
}
