package heuristics

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"oneport/internal/graph"
	"oneport/internal/platform"
	"oneport/internal/sched"
	"oneport/internal/testbeds"
)

// frontierCases are the graph × platform instances the determinism suites
// run on: dense paper platform plus the routed line topology, where
// communications traverse multi-hop placeComm routes and the bounds walk
// every intermediate processor.
func frontierCases() []struct {
	name string
	g    *graph.Graph
	pl   *platform.Platform
} {
	wide, err := platform.Homogeneous(65)
	if err != nil {
		panic(err)
	}
	wide100, err := platform.Homogeneous(100)
	if err != nil {
		panic(err)
	}
	return []struct {
		name string
		g    *graph.Graph
		pl   *platform.Platform
	}{
		{"forkjoin40", testbeds.ForkJoin(40, 10), platform.Paper()},
		{"lu12", testbeds.LU(12, 10), platform.Paper()},
		{"stencil8", testbeds.Stencil(8, 10), platform.Paper()},
		{"lu10-line4", testbeds.LU(10, 10), linePlatform(4)},
		// more than 64 processors, at the boundary of one 64-bit word (65)
		// and well past it (100)
		{"lu6-wide65", testbeds.LU(6, 10), wide},
		{"lu6-wide100", testbeds.LU(6, 10), wide100},
	}
}

// TestDLSFrontierDeterminism pins DLS's pruned scan (dlsStep, twin
// classes): it produces schedules byte-identical to the reference loop that
// probes every pair at every step, for every communication model, on dense
// and routed platforms.
//
// The one-port and uni-port cases below are where a scan that pruned on
// stale starts missed the argmax: under one-port rules a commit can lower
// a pair's start (TestFrontierBoundAnomaly), so only a sound bound keeps
// DLS on the reference schedule.
func TestDLSFrontierDeterminism(t *testing.T) {
	check := func(t *testing.T, g *graph.Graph, pl *platform.Platform, model sched.Model) {
		t.Helper()
		ref, err := dlsReference(g, pl, model)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dlsRun(g, pl, model, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameSchedule(ref, got); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range frontierCases() {
		for _, model := range sched.Models() {
			t.Run(fmt.Sprintf("%s/%s", c.name, model), func(t *testing.T) {
				check(t, c.g, c.pl, model)
			})
		}
	}
	diverged := []struct {
		name string
		g    *graph.Graph
	}{
		{"lu40", testbeds.LU(40, 10)},
		{"stencil30", testbeds.Stencil(30, 10)},
		{"stencil40", testbeds.Stencil(40, 10)},
	}
	for seed := int64(1); seed <= 20; seed++ {
		diverged = append(diverged, struct {
			name string
			g    *graph.Graph
		}{fmt.Sprintf("random%d", seed), testbeds.RandomLayered(seed, 15, 12, 10, 10)})
	}
	for _, c := range diverged {
		for _, model := range []sched.Model{sched.OnePort, sched.UniPort} {
			t.Run(fmt.Sprintf("%s-paper/%s", c.name, model), func(t *testing.T) {
				check(t, c.g, platform.Paper(), model)
			})
		}
	}
	// DLS scans one row per class of interchangeable tasks: these are the
	// instances full of such classes
	for _, c := range twinCases(t) {
		for _, model := range sched.Models() {
			t.Run(fmt.Sprintf("twins/%s/%s", c.name, model), func(t *testing.T) {
				check(t, c.g, c.pl, model)
			})
		}
	}
}

// TestBILFrontierDeterminism is the same pin for the static-order EFT
// runner (eftRun): BIL, HEFT and HEFT-append must
// match the original interleaved list loop (listReference) on every case.
// The incremental oracle cannot stand in for this: its cold side is the
// same runner.
func TestBILFrontierDeterminism(t *testing.T) {
	for _, c := range frontierCases() {
		bl, err := priorities(c.g, c.pl)
		if err != nil {
			t.Fatal(err)
		}
		refs := []struct {
			name       string
			prio       []float64
			appendOnly bool
		}{
			{"bil", bilPrioritiesReference(c.g, c.pl), false},
			{"heft", bl, false},
			{"heft-append", bl, true},
		}
		for _, model := range sched.Models() {
			t.Run(fmt.Sprintf("%s/%s", c.name, model), func(t *testing.T) {
				for _, r := range refs {
					ref, err := listReference(c.g, c.pl, model, r.prio, r.appendOnly)
					if err != nil {
						t.Fatal(err)
					}
					got, err := eftSchedule(r.name, c.g, c.pl, model, nil)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameSchedule(ref, got); err != nil {
						t.Fatalf("%s: %v", r.name, err)
					}
				}
			})
		}
	}
}

// TestCPOPFrontierDeterminism is the same pin for CPOP, whose off-path
// processor scan runs on bestEFT like BIL's.
func TestCPOPFrontierDeterminism(t *testing.T) {
	for _, c := range frontierCases() {
		for _, model := range sched.Models() {
			t.Run(fmt.Sprintf("%s/%s", c.name, model), func(t *testing.T) {
				ref, err := cpopReference(c.g, c.pl, model)
				if err != nil {
					t.Fatal(err)
				}
				got, err := cpopRun(c.g, c.pl, model, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameSchedule(ref, got); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestExhaustiveFrontierDeterminism pins the branch-and-bound: pruning on
// the start bound before it probes, the search must visit the same tree —
// same best schedule, byte for byte, and the same completion flag — as the
// reference, exhaustively on small instances and under a budget cutoff.
func TestExhaustiveFrontierDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomLayeredDAG(r, 6)
		pl, err := platform.Uniform([]float64{1, 2, 1}, float64(1+r.Intn(2)))
		if err != nil {
			return false
		}
		budgets := []int{300000, 400} // complete search and a mid-search cutoff
		for _, model := range sched.Models() {
			for _, budget := range budgets {
				ref, refDone, err := exhaustiveReference(g, pl, model, budget)
				if err != nil {
					continue // tiny budget found nothing: also true for the pruned search
				}
				got, gotDone, err := Exhaustive(g, pl, model, budget)
				if err != nil {
					t.Logf("seed %d %v budget %d: %v", seed, model, budget, err)
					return false
				}
				if gotDone != refDone {
					t.Logf("seed %d %v budget %d: complete=%v, reference %v", seed, model, budget, gotDone, refDone)
					return false
				}
				if err := sameSchedule(ref, got); err != nil {
					t.Logf("seed %d %v budget %d: %v", seed, model, budget, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestExhaustiveCutoffFrontierDeterminism pins the branch-and-bound on
// LU instances under every model: LU-5 on the paper platform cut off at
// 4,000 expansions, and LU-4 on three processors searched to completion.
// A cut-off search shows how many nodes the search spent, so it fails when
// a pair whose bound survives is expanded without the check of its exact
// start, which the random DAGs above leave unseen.
func TestExhaustiveCutoffFrontierDeterminism(t *testing.T) {
	small, err := platform.Homogeneous(3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		g      *graph.Graph
		pl     *platform.Platform
		budget int
	}{
		{"lu5-paper-4000", testbeds.LU(5, 10), platform.Paper(), 4000},
		{"lu4-p3-complete", testbeds.LU(4, 10), small, 300000},
	}
	for _, c := range cases {
		for _, model := range sched.Models() {
			t.Run(fmt.Sprintf("%s/%s", c.name, model), func(t *testing.T) {
				ref, refDone, err := exhaustiveReference(c.g, c.pl, model, c.budget)
				if err != nil {
					t.Fatal(err)
				}
				got, gotDone, err := Exhaustive(c.g, c.pl, model, c.budget)
				if err != nil {
					t.Fatal(err)
				}
				if gotDone != refDone {
					t.Fatalf("complete=%v, reference %v", gotDone, refDone)
				}
				if err := sameSchedule(ref, got); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestFrontierNeverServesStale is the adversarial property of DLS's scan.
// The walk commits, at every step, the top task on the processor where it
// starts latest, so messages are forced across the longest routes and the
// walk reaches states DLS itself never would: on routed line platforms,
// where every remote message crosses intermediate wires, and on platforms
// past 64 processors. Before every commit, dlsStep over every ready task
// must pick the pair the full scan picks (every pair probed afresh in
// ascending ids, strict improvement) and return that pair's fresh
// placement, hop for hop: DLS commits it without a second probe.
func TestFrontierNeverServesStale(t *testing.T) {
	wide, err := platform.Homogeneous(65)
	if err != nil {
		t.Fatal(err)
	}
	wide100, err := platform.Homogeneous(100)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		g    *graph.Graph
		pl   *platform.Platform
	}{
		{"lu8-line5", testbeds.LU(8, 10), linePlatform(5)},
		{"stencil6-line4", testbeds.Stencil(6, 10), linePlatform(4)},
		{"forkjoin20-paper", testbeds.ForkJoin(20, 10), platform.Paper()},
		{"lu5-wide65", testbeds.LU(5, 10), wide},
		{"lu5-wide100", testbeds.LU(5, 10), wide100},
	}
	for _, c := range cases {
		for _, model := range sched.Models() {
			t.Run(fmt.Sprintf("%s/%s", c.name, model), func(t *testing.T) {
				g, pl := c.g, c.pl
				sl, err := priorities(g, pl)
				if err != nil {
					t.Fatal(err)
				}
				s, err := newState(g, pl, model, nil)
				if err != nil {
					t.Fatal(err)
				}
				ef := pl.AvgExecFactor()
				check := newProbeBuf(pl.NumProcs())
				var keep []sched.CommEvent // the full scan's pick, out of probe scratch
				ready := newReadyList(sl)
				rel := newReleaser(g)
				for _, v := range rel.initial() {
					ready.push(v)
				}
				for !ready.empty() {
					ids := slices.Sorted(slices.Values(ready.items()))
					wantV, wantDL := -1, math.Inf(-1)
					var want placement
					for _, v := range ids {
						preds := s.preds(v)
						for p := range pl.NumProcs() {
							fresh, _ := s.probeAgainst(check, v, p, preds, nil, 0)
							if dl := s.dynLevel(sl, ef, v, p, fresh.start); dl > wantDL {
								wantV, wantDL, want = v, dl, stashPlacement(&keep, fresh)
							}
						}
					}
					gotV, got := s.dlsStep(ready.items(), sl, ef)
					if gotV != wantV {
						t.Fatalf("dlsStep picked task %d on P%d, the full scan task %d on P%d", gotV, got.proc, wantV, want.proc)
					}
					if err := samePlacement(want, got); err != nil {
						t.Fatalf("task %d: %v", gotV, err)
					}
					// commit the top task where it starts latest: maximizes
					// remote traffic and route length
					v := ready.pop()
					worst, latest := 0, math.Inf(-1)
					for p := range pl.NumProcs() {
						if start := s.probe(v, p).start; start > latest {
							worst, latest = p, start
						}
					}
					s.commit(v, s.probe(v, worst))
					for _, nv := range rel.release(v) {
						ready.push(nv)
					}
				}
			})
		}
	}
}

// boundPlatforms are the platforms of the bound properties: the paper
// platform, a 16-processor heterogeneous one, the routed line and 70
// processors.
func boundPlatforms(t *testing.T) []struct {
	name string
	pl   *platform.Platform
} {
	rng := rand.New(rand.NewSource(7))
	cycles16 := make([]float64, 16)
	link16 := make([][]float64, 16)
	for q := range cycles16 {
		cycles16[q] = []float64{3, 5, 6, 10, 15}[rng.Intn(5)]
		link16[q] = make([]float64, 16)
	}
	for q := 0; q < 16; q++ {
		for r := q + 1; r < 16; r++ {
			// a 0.3 link keeps the durations off the binary grid
			c := []float64{0.5, 1, 2, 0.3}[rng.Intn(4)]
			link16[q][r], link16[r][q] = c, c
		}
	}
	hetero16, err := platform.New(cycles16, link16)
	if err != nil {
		t.Fatal(err)
	}
	cycles70 := make([]float64, 70)
	for q := range cycles70 {
		cycles70[q] = []float64{6, 10, 15}[q%3]
	}
	wide70, err := platform.Uniform(cycles70, 1)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		pl   *platform.Platform
	}{
		{"paper", platform.Paper()},
		{"hetero16", hetero16},
		{"line4", linePlatform(4)},
		{"wide70", wide70},
	}
}

// TestFrontierBoundSound is the soundness property of the start bound
// the pruned scans take (startBounds, which DLS and the Exhaustive search
// prune on; plus the execution time it is bestEFT's bound, bit for bit,
// see checkBounds): along randomized commit walks
// — random tasks committed to random processors, so messages queue on
// ports in every order — the start bound of every ready task on every
// processor, from the sender releases bestEFT computes, must stay at or
// below the start a fresh probe returns, and the bound plus the execution
// time at or below its finish. Append-only placement runs both ways: it
// moves the compute gap search of the bound. Under each port model that
// ran, some checks must have a remote predecessor whose release is past
// its finish, or the release term went untested.
func TestFrontierBoundSound(t *testing.T) {
	checks := 0
	ran, released := map[sched.Model]bool{}, map[sched.Model]int{}
	for _, appendOnly := range []bool{false, true} {
		prefix := ""
		if appendOnly {
			prefix = "append-only/"
		}
		for _, c := range boundPlatforms(t) {
			for _, model := range sched.Models() {
				for seed := int64(1); seed <= 3; seed++ {
					t.Run(fmt.Sprintf("%s%s/%s/seed%d", prefix, c.name, model, seed), func(t *testing.T) {
						g := testbeds.RandomLayered(seed, 8, 8, 10, 10)
						n, r := boundWalk(t, g, c.pl, model, appendOnly, rand.New(rand.NewSource(seed)))
						checks += n
						ran[model] = true
						released[model] += r
					})
				}
			}
		}
	}
	t.Logf("%d bound checks; checks with a sender release past its finish: %v", checks, released)
	for _, model := range []sched.Model{sched.OnePort, sched.UniPort, sched.OnePortNoOverlap} {
		if ran[model] && released[model] == 0 {
			t.Errorf("%s: no bound check had a sender release past its predecessor's finish", model)
		}
	}
}

// TestFrontierBoundAnomaly pins the two-message counter-example of
// DESIGN.md "Whole-frontier scans": a commit that delays a probe's first
// message frees the receive port for its second, and the pair's start
// falls from 109 to 102. So no start seen before a commit bounds a start
// after it, and the scans keep none; the start bound they take afresh
// must stay at or below the probe's start on both sides of the commit.
func TestFrontierBoundAnomaly(t *testing.T) {
	g := graph.New(7)
	a := g.AddNode(0, "a")  // P0, done at 0: first message, 2 long
	b := g.AddNode(1, "b")  // P1, done at 1: second message, 9 long
	c := g.AddNode(10, "c") // P3, done at 10
	d := g.AddNode(0, "d")  // P2: c's 90-long message busies P2's reception over [10, 100)
	f := g.AddNode(0, "f")  // P3: a's 9.5-long message blocks P0's send port until 9.5
	v := g.AddNode(1, "v")  // probed on P2
	g.MustEdge(a, v, 2)
	g.MustEdge(b, v, 9)
	g.MustEdge(c, d, 90)
	g.MustEdge(a, f, 9.5)
	pl, err := platform.Homogeneous(4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newState(g, pl, sched.OnePort, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []struct{ task, proc int }{{a, 0}, {b, 1}, {c, 3}, {d, 2}} {
		s.commit(x.task, s.probe(x.task, x.proc))
	}
	starts := make([]float64, pl.NumProcs())
	for i, want := range []float64{109, 102} {
		if i == 1 {
			s.commit(f, s.probe(f, 3))
		}
		fresh := s.probe(v, 2)
		if fresh.start != want {
			t.Fatalf("start after %d commits = %g, want %g", 4+i, fresh.start, want)
		}
		if s.startBounds(starts, v); starts[2] > fresh.start {
			t.Fatalf("start bound %g above the fresh start %g", starts[2], fresh.start)
		}
	}
}

// boundWalk runs one randomized commit walk for TestFrontierBoundSound and
// returns how many bounds it checked and how many of those checks had a
// remote predecessor whose sender release is past its finish. Under the
// models with no sender term every release must be the finish.
func boundWalk(t *testing.T, g *graph.Graph, pl *platform.Platform, model sched.Model, appendOnly bool, rng *rand.Rand) (checks, released int) {
	t.Helper()
	s, err := newState(g, pl, model, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.appendOnly = appendOnly
	check := newProbeBuf(pl.NumProcs())
	rl := newReleaser(g)
	var ready []int
	ready = append(ready, rl.initial()...)
	np := pl.NumProcs()
	starts := make([]float64, np)
	for len(ready) > 0 {
		for _, v := range ready {
			s.startBounds(starts, v)
			preds := s.preds(v)
			rel := s.senderReleases(preds)
			if model == sched.MacroDataflow || model == sched.LinkContention {
				for i := range preds {
					if rel[i] != preds[i].finish {
						t.Fatalf("task %d pred %d: release %g, want its finish %g", v, preds[i].node, rel[i], preds[i].finish)
					}
				}
			}
			for p, start := range starts {
				fresh, _ := s.probeAgainst(check, v, p, preds, nil, 0)
				if start > fresh.start {
					t.Fatalf("task %d proc %d: start bound %g above the fresh start %g", v, p, start, fresh.start)
				}
				if dur := pl.ExecTime(g.Weight(v), p); start+dur > fresh.finish {
					t.Fatalf("task %d proc %d: finish bound %g above the fresh finish %g", v, p, start+dur, fresh.finish)
				}
				checks++
				for i := range preds {
					if preds[i].proc != p && rel[i] > preds[i].finish {
						released++
						break
					}
				}
			}
		}
		// commit a random ready task on a random processor
		i := rng.Intn(len(ready))
		v := ready[i]
		ready = append(ready[:i], ready[i+1:]...)
		s.commit(v, s.probe(v, rng.Intn(np)))
		ready = append(ready, rl.release(v)...)
	}
	return checks, released
}

// TestBestEFTMatchesReference is the differential pin of the bound-seeded
// scan: along randomized commit walks like boundWalk's, bestEFT must
// return exactly the placement of the plain loop over every candidate
// (bestEFTReference) — processor, start, finish and every hop — for all
// processors and for random candidate subsets (ILHA's CapStep2 passes
// ascending ones; shuffled ones check that ties go by position, not by
// processor), under every model, on the bound platforms, with append-only
// on and off. After every scan, each candidate's finish bound from bestEFT's
// one-predecessor-at-a-time pass must equal the per-candidate bound the
// scan took before (finishBoundReference) bit for bit, and so must, over
// all processors, startBounds' start bound, the one DLS and the Exhaustive
// search prune on, plus the execution time. The same walks check the probe's cut
// at the incumbent (checkCuts) on the random subsets. Each platform and
// model walks two seeds, seed1 and seed2, each with append-only off and on.
func TestBestEFTMatchesReference(t *testing.T) {
	var n eftCounts
	for _, c := range boundPlatforms(t) {
		for _, model := range sched.Models() {
			for _, seed := range []int64{1, 2} {
				for _, appendOnly := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/%s/seed%d/append=%v", c.name, model, seed, appendOnly), func(t *testing.T) {
						g := testbeds.RandomLayered(seed, 8, 8, 10, 10)
						eftWalk(t, g, c.pl, model, appendOnly, rand.New(rand.NewSource(seed)), &n)
					})
				}
			}
		}
	}
	t.Logf("%d scans matched the reference, %d bounds; %d incumbent probes cut, %d ran on; %d incumbents tied below, %d above",
		n.scans, n.bounds, n.cut, n.ran, n.tieBelow, n.tieAbove)
	if n.cut == 0 || n.ran == 0 || n.tieBelow == 0 || n.tieAbove == 0 {
		t.Fatal("the walks left a case of the incumbent cut unchecked")
	}
}

// eftCounts tallies what the eftWalks compared: bestEFT scans and
// candidate bounds matched against the reference, incumbent probes that
// were cut or ran on, and incumbents whose finish equals the candidate's at
// a lower or a higher position.
type eftCounts struct {
	scans, bounds, cut, ran int
	tieBelow, tieAbove      int
}

// eftWalk runs one randomized commit walk for TestBestEFTMatchesReference,
// adding what it compared to n.
func eftWalk(t *testing.T, g *graph.Graph, pl *platform.Platform, model sched.Model, appendOnly bool, rng *rand.Rand, n *eftCounts) {
	t.Helper()
	s, err := newState(g, pl, model, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.appendOnly = appendOnly
	rel := newReleaser(g)
	var ready []int
	ready = append(ready, rel.initial()...)
	np := pl.NumProcs()
	var keep []sched.CommEvent // the reference placement's comms, out of probe scratch
	check := newProbeBuf(np)
	for len(ready) > 0 {
		for _, v := range ready {
			subset := rng.Perm(np)[:1+rng.Intn(np)]
			if rng.Intn(2) == 0 {
				slices.Sort(subset)
			}
			for _, cands := range [][]int{nil, subset} {
				want := stashPlacement(&keep, bestEFTReference(s, v, cands))
				got := s.bestEFT(v, cands)
				if err := samePlacement(want, got); err != nil {
					t.Fatalf("task %d, candidates %v: %v", v, cands, err)
				}
				n.scans++
				checkBounds(t, s, v, cands, n)
			}
			checkCuts(t, s, check, v, subset, rng, n)
		}
		i := rng.Intn(len(ready))
		v := ready[i]
		ready = append(ready[:i], ready[i+1:]...)
		s.commit(v, s.probe(v, rng.Intn(np)))
		ready = append(ready, rel.release(v)...)
	}
}

// checkBounds checks, right after s.bestEFT(v, cands), the finish bound of
// every candidate position in bestEFT's scratch against
// finishBoundReference, bit for bit, and, for all processors, startBounds'
// bound plus the execution time too.
func checkBounds(t *testing.T, s *state, v int, cands []int, n *eftCounts) {
	t.Helper()
	m := len(cands)
	if cands == nil {
		m = s.pl.NumProcs()
	}
	bounds := s.bounds[:m]
	preds := s.preds(v)
	rel := s.senderReleases(preds)
	w := s.g.Weight(v)
	for j, got := range bounds {
		p := candidateAt(cands, j)
		want := finishBoundReference(s, w, p, preds, rel)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("task %d, candidates %v, position %d (P%d): bestEFT bound %v, reference %v",
				v, cands, j, p, got, want)
		}
		n.bounds++
	}
	if cands != nil {
		return
	}
	// startBounds refills the predecessor and release scratch: compare
	// against the bounds bestEFT left, which matched the reference above
	starts := make([]float64, m)
	s.startBounds(starts, v)
	for p, start := range starts {
		if got := start + s.pl.ExecTime(w, p); math.Float64bits(got) != math.Float64bits(bounds[p]) {
			t.Fatalf("task %d, P%d: startBounds bound plus execution time %v, bestEFT bound %v", v, p, got, bounds[p])
		}
	}
}

// checkCuts checks probeAgainst for task v over the candidate list cands.
// Every candidate is probed against incumbents taken from other
// candidates' full probes: a random one and, when there is one, the first
// with an equal finish at a lower position and at a higher one, the two
// sides of the position tie. A probe that was cut must have a full probe
// that does not beat its incumbent; a probe that was not cut must return
// the full probe's placement, hop for hop.
func checkCuts(t *testing.T, s *state, b *probeBuf, v int, cands []int, rng *rand.Rand, n *eftCounts) {
	t.Helper()
	m := len(cands)
	if m < 2 {
		return
	}
	preds := s.preds(v)
	fulls := make([]placement, m)
	for j := range fulls {
		var keep []sched.CommEvent
		full, _ := s.probeAgainst(b, v, candidateAt(cands, j), preds, nil, 0)
		fulls[j] = stashPlacement(&keep, full)
	}
	for j := 0; j < m; j++ {
		k := rng.Intn(m - 1)
		if k >= j {
			k++
		}
		incs := []int{k}
		below, above := -1, -1
		for i := range m {
			if i != j && fulls[i].finish == fulls[j].finish {
				if i < j && below < 0 {
					below = i
				} else if i > j && above < 0 {
					above = i
				}
			}
		}
		if below >= 0 {
			incs = append(incs, below)
			n.tieBelow++
		}
		if above >= 0 {
			incs = append(incs, above)
			n.tieAbove++
		}
		for _, k := range incs {
			inc := incumbent{pl: fulls[k], pos: k}
			got, cut := s.probeAgainst(b, v, candidateAt(cands, j), preds, &inc, j)
			if cut {
				n.cut++
				if inc.beatenBy(fulls[j].finish, j) {
					t.Fatalf("task %d, candidates %v: position %d cut against position %d (finish %g), but its full probe finishes at %g",
						v, cands, j, k, fulls[k].finish, fulls[j].finish)
				}
				continue
			}
			n.ran++
			if err := samePlacement(fulls[j], got); err != nil {
				t.Fatalf("task %d, candidates %v: position %d against position %d ran on to %v", v, cands, j, k, err)
			}
		}
	}
}

// samePlacement reports how two placements differ, or nil when processor,
// start, finish and every comm event and hop agree exactly.
func samePlacement(want, got placement) error {
	if want.proc != got.proc || want.start != got.start || want.finish != got.finish {
		return fmt.Errorf("placement P%d [%g, %g), want P%d [%g, %g)",
			got.proc, got.start, got.finish, want.proc, want.start, want.finish)
	}
	if len(want.comms) != len(got.comms) {
		return fmt.Errorf("%d comm events, want %d", len(got.comms), len(want.comms))
	}
	for i := range want.comms {
		if !reflect.DeepEqual(want.comms[i], got.comms[i]) {
			return fmt.Errorf("comm %d: %+v, want %+v", i, got.comms[i], want.comms[i])
		}
	}
	return nil
}

// TestFrontierScratchReuse pins the recycling path of a Scratch: the probe
// buffer and the predecessor, bound and release scratch it carries across
// runs are not zeroed, so a reused Scratch must behave exactly like a fresh
// one — including across graph- and platform-size changes and across
// heuristics sharing one Scratch. A scan that read a value left by an
// earlier run would show up here as a schedule diff. The last case runs
// DLS on a heavy LU, every weight and data volume × 50, then on the plain
// one with the same Scratch, under every model: the heavy run leaves large
// values in the bound scratch, and a scan that read one of them as a bound
// would skip pairs the light run needs.
func TestFrontierScratchReuse(t *testing.T) {
	paper := platform.Paper()
	small, err := platform.Homogeneous(3)
	if err != nil {
		t.Fatal(err)
	}
	lu := testbeds.LU(12, 10)
	fj := testbeds.ForkJoin(15, 10)

	wantLU, err := dlsReference(lu, paper, sched.OnePort)
	if err != nil {
		t.Fatal(err)
	}
	wantFJ, err := dlsReference(fj, small, sched.OnePort)
	if err != nil {
		t.Fatal(err)
	}
	wantBIL, err := listReference(lu, paper, sched.OnePort, bilPrioritiesReference(lu, paper), false)
	if err != nil {
		t.Fatal(err)
	}
	wantEx, wantDone, err := exhaustiveReference(fj, small, sched.OnePort, 2000)
	if err != nil {
		t.Fatal(err)
	}

	tune := &Tuning{Scratch: NewScratch()}
	for rep := 0; rep < 3; rep++ {
		got, err := dlsRun(lu, paper, sched.OnePort, tune)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameSchedule(wantLU, got); err != nil {
			t.Fatalf("rep %d DLS lu: %v", rep, err)
		}
		got, err = dlsRun(fj, small, sched.OnePort, tune)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameSchedule(wantFJ, got); err != nil {
			t.Fatalf("rep %d DLS fj/small: %v", rep, err)
		}
		got, err = eftSchedule("bil", lu, paper, sched.OnePort, tune)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameSchedule(wantBIL, got); err != nil {
			t.Fatalf("rep %d BIL: %v", rep, err)
		}
		gotEx, gotDone, err := ExhaustiveTuned(fj, small, sched.OnePort, 2000, tune)
		if err != nil {
			t.Fatal(err)
		}
		if gotDone != wantDone {
			t.Fatalf("rep %d Exhaustive: complete=%v, reference %v", rep, gotDone, wantDone)
		}
		if err := sameSchedule(wantEx, gotEx); err != nil {
			t.Fatalf("rep %d Exhaustive: %v", rep, err)
		}
	}

	heavy := lu.Clone()
	for v := range heavy.NumNodes() {
		if err := heavy.SetWeight(v, 50*heavy.Weight(v)); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range heavy.Edges() {
		if err := heavy.SetEdgeData(e.From, e.To, 50*e.Data); err != nil {
			t.Fatal(err)
		}
	}
	for _, model := range sched.Models() {
		want, err := dlsReference(lu, paper, model)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dlsRun(heavy, paper, model, tune); err != nil {
			t.Fatal(err)
		}
		got, err := dlsRun(lu, paper, model, tune)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameSchedule(want, got); err != nil {
			t.Errorf("%s: DLS lu after the heavy lu: %v", model, err)
		}
	}
}
