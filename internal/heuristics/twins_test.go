package heuristics

import (
	"math/rand"
	"testing"

	"oneport/internal/graph"
	"oneport/internal/platform"
	"oneport/internal/sched"
	"oneport/internal/testbeds"
)

// seededPlatform returns a fully connected platform of p processors whose
// cycle-times cycle through {3, 5, 6, 10, 15} in seeded order, with seeded
// symmetric link costs in {0.5, 1, 2}: the recipe of the benchmark's
// generated platforms.
func seededPlatform(t testing.TB, seed int64, p int) *platform.Platform {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cycles := make([]float64, p)
	for i := range cycles {
		cycles[i] = []float64{3, 5, 6, 10, 15}[i%5]
	}
	rng.Shuffle(p, func(i, j int) { cycles[i], cycles[j] = cycles[j], cycles[i] })
	link := make([][]float64, p)
	for q := range link {
		link[q] = make([]float64, p)
	}
	for q := 0; q < p; q++ {
		for r := q + 1; r < p; r++ {
			c := []float64{0.5, 1, 2}[rng.Intn(3)]
			link[q][r], link[r][q] = c, c
		}
	}
	pl, err := platform.New(cycles, link)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// twinCase is one instance of the DLS twin-class suite.
type twinCase struct {
	name string
	g    *graph.Graph
	pl   *platform.Platform
}

// twinCases are the instances where DLS's ready list holds classes of
// interchangeable tasks (twins.admit): the paper's fork-join on 32
// processors (300 twins released by one commit), a fork with repeated
// (weight, data) children, a bag of equal independent tasks, the two
// tasks of probeOrderTwins, whose predecessor lists hold the same
// (processor, finish, data) multiset in a different probe order, and LU
// after session-style grafts (new tasks fed by one tail task, some with
// equal weights).
func twinCases(t *testing.T) []twinCase {
	t.Helper()
	var weights, data []float64
	for i := 0; i < 24; i++ {
		weights = append(weights, []float64{2, 3, 2, 5}[i%4])
		data = append(data, []float64{4, 4, 1}[i%3])
	}
	fork, err := testbeds.Fork(1, weights, data)
	if err != nil {
		t.Fatal(err)
	}
	bag := graph.New(30)
	for i := 0; i < 30; i++ {
		w := 4.0
		if i%7 == 3 {
			w = 6
		}
		bag.AddNode(w, "")
	}
	order, _ := probeOrderTwins()
	grafted := testbeds.LU(20, 10)
	rng := rand.New(rand.NewSource(3))
	n := grafted.NumNodes()
	for i := 0; i < 24; i++ {
		tail := n - 1 - rng.Intn(4)
		v := grafted.AddNode(float64(1+rng.Intn(3)), "graft")
		grafted.MustEdge(tail, v, 10*grafted.Weight(tail))
	}
	return []twinCase{
		{"forkjoin300-p32", testbeds.ForkJoin(300, 10), seededPlatform(t, 1, 32)},
		{"fork-repeated", fork, platform.Paper()},
		{"bag30", bag, platform.Paper()},
		{"probe-order", order, platform.Paper()},
		{"lu20-grafts", grafted, platform.Paper()},
	}
}

// probeOrderTwins builds two tasks x and y of equal weight whose
// predecessors finish together on P0 and P1 with the same data volumes,
// but in the opposite probe order: x's list is (P0, 3), (P1, 4) and y's
// (P1, 4), (P0, 3). It returns the graph and the placements that realize
// that on a 4-processor homogeneous platform, with z's message busying
// P2's reception from 5 on.
func probeOrderTwins() (*graph.Graph, []struct{ task, proc int }) {
	g := graph.New(8)
	a := g.AddNode(0, "a") // P0
	b := g.AddNode(0, "b") // P1
	c := g.AddNode(0, "c") // P1
	e := g.AddNode(0, "e") // P0
	z := g.AddNode(5, "z") // P3, done at 5
	k := g.AddNode(1, "k") // P2: z's 25-long message busies P2's reception over [5, 30)
	x := g.AddNode(2, "x")
	y := g.AddNode(2, "y")
	g.MustEdge(a, x, 3)
	g.MustEdge(b, x, 4)
	g.MustEdge(c, y, 4)
	g.MustEdge(e, y, 3)
	g.MustEdge(z, k, 25)
	return g, []struct{ task, proc int }{{a, 0}, {b, 1}, {c, 1}, {e, 0}, {z, 3}, {k, 2}}
}

// TestTwinClassesKeepProbeOrder pins why admit compares predecessor lists
// in probe order, not as multisets: on P2, x's first message takes the
// receive port until 3 and pushes its second past the busy stretch
// (ready 34), while y's longer first message fits before it and its
// shorter second is pushed (ready 33). Merging the two would score y by
// x's row. It also checks that equal tasks do merge behind the lowest id.
func TestTwinClassesKeepProbeOrder(t *testing.T) {
	g, placed := probeOrderTwins()
	pl, err := platform.Homogeneous(4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newState(g, pl, sched.OnePort, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range placed {
		s.commit(x.task, s.probe(x.task, x.proc))
	}
	x, y := 6, 7
	px, py := s.probe(x, 2).finish, s.probe(y, 2).finish
	if px != 36 || py != 35 {
		t.Fatalf("finishes on P2: x %g, y %g; want 36 and 35", px, py)
	}
	sl, err := priorities(g, pl)
	if err != nil {
		t.Fatal(err)
	}
	if sl[x] != sl[y] || g.Weight(x) != g.Weight(y) {
		t.Fatal("x and y must agree in weight and static level")
	}
	tw := newTwins(g.NumNodes())
	ready := newReadyList(sl)
	tw.admit(s, ready, sl, []int{y, x})
	if ready.len() != 2 || tw.next[x] != -1 || tw.next[y] != -1 {
		t.Fatalf("x and y merged: ready %v, next %v", ready.items(), tw.next)
	}

	// equal independent tasks are twins: one class behind the lowest id,
	// chained in ascending id order whatever the batch order
	bag := graph.New(4)
	for i := 0; i < 4; i++ {
		bag.AddNode(2, "")
	}
	if s, err = newState(bag, pl, sched.OnePort, nil); err != nil {
		t.Fatal(err)
	}
	if sl, err = priorities(bag, pl); err != nil {
		t.Fatal(err)
	}
	tw = newTwins(bag.NumNodes())
	ready = newReadyList(sl)
	tw.admit(s, ready, sl, []int{3, 1, 0, 2})
	if ready.len() != 1 || ready.items()[0] != 0 {
		t.Fatalf("ready %v, want the class head 0 alone", ready.items())
	}
	for v, want := range []int32{1, 2, 3, -1} {
		if tw.next[v] != want {
			t.Fatalf("next[%d] = %d, want %d", v, tw.next[v], want)
		}
	}
}

// TestProbeCounts pins the probes three runs issue and the messages those
// probes place. The counts move only when the scan
// changes what it probes or how far a probe goes, never with speed; a
// change here must be deliberate. Before the bound-seeded bestEFT and
// DLS's twin classes, the fork-join and HEFT runs issued 285,133 (DLS) and
// 18,290 (HEFT) probes. Before probes stopped at the incumbent, the HEFT
// run placed 20,777 messages; DLS's probes always run in full, so the cut
// left its messages as they were. Before finishBound waited for each
// remote predecessor's sender release, the HEFT run issued 12,119 probes
// placing 16,187 messages. While DLS cached pair scores across steps, the
// DLS runs issued 9,887 probes placing 18,776 messages (fork-join) and
// 16,904 placing 29,921 (LU under link contention, the instance a static
// bound for unprobed pairs once made slower), then, with a fresh
// sender-release bound recorded in each stale pair, 716 placing 448 and
// 2,416 placing 3,352. Bounding every pair afresh at every step (dlsStep),
// with no cache and no re-probe of the winner, gives the counts below.
func TestProbeCounts(t *testing.T) {
	cases := []struct {
		name         string
		run          func(tune *Tuning) (*sched.Schedule, error)
		probes, msgs int
	}{
		{"dls/forkjoin300/p32/one-port", func(tune *Tuning) (*sched.Schedule, error) {
			return dlsRun(testbeds.ForkJoin(300, 10), seededPlatform(t, 1, 32), sched.OnePort, tune)
		}, 302, 224},
		{"dls/lu30/p32/link-contention", func(tune *Tuning) (*sched.Schedule, error) {
			return dlsRun(testbeds.LU(30, 10), seededPlatform(t, 1, 32), sched.LinkContention, tune)
		}, 2596, 3593},
		{"heft/lu60/paper/one-port", func(tune *Tuning) (*sched.Schedule, error) {
			return eftSchedule("heft", testbeds.LU(60, 10), platform.Paper(), sched.OnePort, tune)
		}, 3656, 4793},
	}
	for _, c := range cases {
		sc := NewScratch()
		if _, err := c.run(&Tuning{Scratch: sc}); err != nil {
			t.Fatal(err)
		}
		if probes, msgs := sc.buf.probes, sc.buf.msgs; probes != c.probes || msgs != c.msgs {
			t.Errorf("%s: %d probes placing %d messages, want %d placing %d", c.name, probes, msgs, c.probes, c.msgs)
		}
	}
}
