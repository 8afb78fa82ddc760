package heuristics

import (
	"fmt"
	"math"
	"sort"

	"oneport/internal/graph"
	"oneport/internal/platform"
	"oneport/internal/sched"
)

// This file preserves the original implementations of DLS, the
// static-order list loop (HEFT, HEFT-append, BIL) and the Exhaustive
// search, which probe every pair at every step, verbatim (modulo renamed
// ready-list plumbing, the stash helper and the cycle checks that
// newState's validation made unreachable) as test oracles, together with
// CPOP, the plain earliest-finish scan that the bound-seeded bestEFT
// replaced and the per-candidate finish bound its
// one-predecessor-at-a-time bound pass replaced: the pruned
// implementations must produce byte-identical schedules, and the
// *_Reference benchmarks in frontier_bench_test.go keep the before/after
// performance ratio visible. One deliberate deviation: the original
// Exhaustive could report completion after a mid-search budget cutoff (the
// post-recursion return never set the exhausted flag); that bug fix is
// mirrored here — it moves the budget check to the top of each expansion
// without changing the traversal — so the determinism suites can still
// compare the flag.

// dlsReference is the original DLS loop: at every step it re-probes every
// (ready task, processor) pair from scratch with the sequential probe path.
func dlsReference(g *graph.Graph, pl *platform.Platform, model sched.Model) (*sched.Schedule, error) {
	s, err := newState(g, pl, model, nil)
	if err != nil {
		return nil, err
	}
	sl, err := priorities(g, pl)
	if err != nil {
		return nil, err
	}
	ef := pl.AvgExecFactor()
	rel := newReleaser(g)
	readySet := map[int]bool{}
	for _, v := range rel.initial() {
		readySet[v] = true
	}
	for len(readySet) > 0 {
		bestV, bestDL := -1, math.Inf(-1)
		var bestPl placement
		// deterministic iteration: ascending task id
		ids := make([]int, 0, len(readySet))
		for v := range readySet {
			ids = append(ids, v)
		}
		sort.Ints(ids)
		for _, v := range ids {
			for q := 0; q < pl.NumProcs(); q++ {
				cand := s.probe(v, q)
				delta := g.Weight(v)*ef - pl.ExecTime(g.Weight(v), q)
				dl := sl[v] - cand.start + delta
				if dl > bestDL {
					bestV, bestDL, bestPl = v, dl, stashPlacement(&s.buf().best, cand)
				}
			}
		}
		s.commit(bestV, bestPl)
		delete(readySet, bestV)
		for _, nv := range rel.release(bestV) {
			readySet[nv] = true
		}
	}
	return s.sch, nil
}

// bestEFTReference is the original earliest-finish scan: every candidate
// probed in position order with the sequential probe path, the first
// strictly earliest finish kept — no bounds, no skipping, no fan-out. The
// placement's comms live in the state's stash, valid until its next stash.
func bestEFTReference(s *state, v int, candidates []int) placement {
	n := len(candidates)
	if candidates == nil {
		n = s.pl.NumProcs()
	}
	best := placement{proc: -1}
	for j := 0; j < n; j++ {
		p := j
		if candidates != nil {
			p = candidates[j]
		}
		pl := s.probe(v, p)
		if best.proc == -1 || pl.finish < best.finish {
			best = stashPlacement(&s.buf().best, pl)
		}
	}
	return best
}

// finishBoundReference is the per-candidate finish bound bestEFT took before
// its bound pass ran one predecessor at a time: for each predecessor, its
// finish when local, else its sender release plus its route's hop
// durations walked hop by hop; then the gap search on p's committed compute
// timeline with the k-view walk, after the append-only horizon; plus the
// execution time.
func finishBoundReference(s *state, w float64, p int, preds []predInfo, rel []float64) float64 {
	ready := 0.0
	for i := range preds {
		pr := &preds[i]
		t := pr.finish
		if pr.proc != p {
			t = rel[i]
			for a, b := pr.proc, s.hop(pr.proc, p); a != p; a, b = b, s.hop(b, p) {
				t += s.pl.CommTime(pr.data, a, b)
			}
		}
		if t > ready {
			ready = t
		}
	}
	dur := s.pl.ExecTime(w, p)
	if last := s.compute[p].LastEnd(); last > ready {
		if s.appendOnly {
			ready = last
		} else {
			ready = sched.EarliestGap(ready, dur, sched.View{Base: &s.compute[p]})
		}
	}
	return ready + dur
}

// listReference is the original static-order list loop: the ready list
// and the releaser interleaved with the commits, each popped task placed
// by the plain earliest-finish scan (bestEFTReference), by insertion or,
// with appendOnly, after its processor's last reservation. Bottom levels
// make it HEFT and HEFT-append, and BIL's levels (bilPrioritiesReference)
// the original BIL loop.
func listReference(g *graph.Graph, pl *platform.Platform, model sched.Model, prio []float64, appendOnly bool) (*sched.Schedule, error) {
	s, err := newState(g, pl, model, nil)
	if err != nil {
		return nil, err
	}
	s.appendOnly = appendOnly
	ready := newReadyList(prio)
	rel := newReleaser(g)
	for _, v := range rel.initial() {
		ready.push(v)
	}
	for !ready.empty() {
		v := ready.pop()
		best := bestEFTReference(s, v, nil)
		s.commit(v, best)
		for _, nv := range rel.release(v) {
			ready.push(nv)
		}
	}
	return s.sch, nil
}

// exhaustiveReference is the original branch-and-bound: every (ready, proc)
// pair is probed from scratch at every DFS node.
func exhaustiveReference(g *graph.Graph, pl *platform.Platform, model sched.Model, nodeBudget int) (*sched.Schedule, bool, error) {
	if nodeBudget <= 0 {
		nodeBudget = 200000
	}
	s, err := newState(g, pl, model, nil)
	if err != nil {
		return nil, false, err
	}
	tmin := pl.CycleTime(pl.FastestProc())
	blw, err := g.BottomLevels(tmin, 0)
	if err != nil {
		return nil, false, err
	}

	n := g.NumNodes()
	indeg := make([]int, n)
	var ready []int
	for v := 0; v < n; v++ {
		indeg[v] = g.InDegree(v)
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}

	var best *sched.Schedule
	bestSpan := math.Inf(1)
	nodes := 0
	exhausted := false

	var dfs func(st *state, ready []int, placed int, curMax float64)
	dfs = func(st *state, ready []int, placed int, curMax float64) {
		if nodes >= nodeBudget {
			exhausted = true
			return
		}
		nodes++
		if placed == n {
			if curMax < bestSpan {
				bestSpan = curMax
				cp := *st.sch
				cp.Tasks = append([]sched.TaskEvent(nil), st.sch.Tasks...)
				cp.Comms = append([]sched.CommEvent(nil), st.sch.Comms...)
				best = &cp
			}
			return
		}
		for ri, v := range ready {
			for q := 0; q < pl.NumProcs(); q++ {
				plc := st.probe(v, q)
				if plc.start+blw[v] >= bestSpan {
					continue
				}
				if nodes >= nodeBudget {
					exhausted = true
					return
				}
				child := st.clone()
				child.commit(v, plc)
				nm := curMax
				if plc.finish > nm {
					nm = plc.finish
				}
				next := make([]int, 0, len(ready)+2)
				next = append(next, ready[:ri]...)
				next = append(next, ready[ri+1:]...)
				for _, a := range g.Succ(v) {
					indeg[a.Node]--
					if indeg[a.Node] == 0 {
						next = append(next, a.Node)
					}
				}
				dfs(child, next, placed+1, nm)
				for _, a := range g.Succ(v) {
					indeg[a.Node]++
				}
			}
		}
	}
	dfs(s, ready, 0, 0)
	if best == nil {
		return nil, false, fmt.Errorf("heuristics: exhaustive search found no schedule within budget %d", nodeBudget)
	}
	return best, !exhausted, nil
}

// cpopReference is the original CPOP loop: critical-path tasks probe their
// pinned processor, every other popped task runs a plain sequential
// earliest-finish scan over all processors — no caching, no bound skipping.
func cpopReference(g *graph.Graph, pl *platform.Platform, model sched.Model) (*sched.Schedule, error) {
	s, err := newState(g, pl, model, nil)
	if err != nil {
		return nil, err
	}
	ef, cf := pl.AvgExecFactor(), pl.AvgLinkFactor()
	bl, err := g.BottomLevels(ef, cf)
	if err != nil {
		return nil, err
	}
	tl, err := g.TopLevels(ef, cf)
	if err != nil {
		return nil, err
	}
	prio := make([]float64, g.NumNodes())
	cpLen := 0.0
	for v := range prio {
		prio[v] = tl[v] + bl[v]
		if prio[v] > cpLen {
			cpLen = prio[v]
		}
	}
	onCP := make([]bool, g.NumNodes())
	cur := -1
	for _, v := range g.Sources() {
		if almost(prio[v], cpLen) && (cur == -1 || prio[v] > prio[cur]) {
			cur = v
		}
	}
	var cpTasks []int
	for cur >= 0 {
		onCP[cur] = true
		cpTasks = append(cpTasks, cur)
		next := -1
		for _, a := range g.Succ(cur) {
			if almost(prio[a.Node], cpLen) && (next == -1 || prio[a.Node] > prio[next]) {
				next = a.Node
			}
		}
		cur = next
	}
	cpProc, best := 0, math.Inf(1)
	for q := 0; q < pl.NumProcs(); q++ {
		var sum float64
		for _, v := range cpTasks {
			sum += pl.ExecTime(g.Weight(v), q)
		}
		if sum < best {
			cpProc, best = q, sum
		}
	}

	ready := newReadyList(prio)
	rel := newReleaser(g)
	for _, v := range rel.initial() {
		ready.push(v)
	}
	for !ready.empty() {
		v := ready.pop()
		var pl0 placement
		if onCP[v] {
			pl0 = s.probe(v, cpProc)
		} else {
			pl0 = bestEFTReference(s, v, nil)
		}
		s.commit(v, pl0)
		for _, nv := range rel.release(v) {
			ready.push(nv)
		}
	}
	return s.sch, nil
}
