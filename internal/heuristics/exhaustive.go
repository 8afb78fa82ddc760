package heuristics

import (
	"fmt"
	"math"

	"oneport/internal/graph"
	"oneport/internal/platform"
	"oneport/internal/sched"
)

// Exhaustive searches the space of *active* schedules by branch-and-bound:
// at every step it branches over each (ready task, processor) pair,
// committing the task with the same greedy-earliest placement machinery the
// heuristics use, and keeps the best complete schedule. An active schedule
// never inserts idle time that no resource constraint forces; the DFS
// explores every commitment order and every mapping, so the result is the
// exact minimum over that (large) class. It is the ground-truth generator
// for small instances: heuristic results are compared against it in tests
// and ablation tables.
//
// The (ready task × processor) expansion scores come from the frontier-probe
// engine: each DFS node revalidates only the pairs its parent's one commit
// perturbed (a cloned child inherits the parent's cache), while pruning and
// expansion order — and therefore the result and the completion flag — are
// byte-identical to the uncached search.
//
// The search is exponential; nodeBudget caps the number of DFS expansions.
// The returned flag reports whether the search ran to completion (true) or
// was cut off, in which case the schedule is the best found so far.
func Exhaustive(g *graph.Graph, pl *platform.Platform, model sched.Model, nodeBudget int) (*sched.Schedule, bool, error) {
	return ExhaustiveTuned(g, pl, model, nodeBudget, nil)
}

// ExhaustiveTuned is Exhaustive with a per-run Tuning, whose Scratch is
// recycled like in every other tuned runner.
func ExhaustiveTuned(g *graph.Graph, pl *platform.Platform, model sched.Model, nodeBudget int, tune *Tuning) (*sched.Schedule, bool, error) {
	if nodeBudget <= 0 {
		nodeBudget = 200000
	}
	s, err := newState(g, pl, model, tune)
	if err != nil {
		return nil, false, err
	}
	defer tune.reclaim(s)
	attachFrontier(s)
	// remaining pure-computation bottom level at the fastest speed: a lower
	// bound on the time between a task's start and the makespan
	tmin := pl.CycleTime(pl.FastestProc())
	blw, err := g.BottomLevels(tmin, 0)
	if err != nil {
		return nil, false, err
	}

	n := g.NumNodes()
	np := pl.NumProcs()
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
		// Score every (ready, proc) pair: cache hits for everything the path
		// to this node left untouched. A stale entry's bound lower-bounds the
		// pair's true start (frontier.startBound), so a pair the bound prunes
		// is pruned without ever re-probing it (the reference search, seeing
		// the no-smaller true start, prunes it too), and every pair that
		// survives the bound is re-probed up front and judged again on its
		// exact start.
		f := st.frontier
		f.ensureFiltered(ready, func(v, p int, e *frontierEntry) bool {
			return f.boundStart(e)+blw[v] < bestSpan
		})
		for ri, v := range ready {
			row := f.row(v)
			for q := 0; q < np; q++ {
				e := &row[q]
				// prune on the lower bound first: it holds for stale entries
				if f.boundStart(e)+blw[v] >= bestSpan {
					continue
				}
				// the entry is exact now (the sweep refreshed every pair whose
				// bound could still pass, and bestSpan only shrinks): re-check
				// against the exact start, which a bound below it must not
				// stand in for
				if e.start+blw[v] >= bestSpan {
					continue
				}
				// the pair would expand: only now may the budget cut it off,
				// and doing so means the search did not run to completion —
				// the pre-engine code returned here silently, letting a
				// mid-search cutoff masquerade as a completed (provably
				// optimal) search, while pairs the bound disposes of are
				// legitimately finished work at any node count
				if nodes >= nodeBudget {
					exhausted = true
					return
				}
				plc := f.placementFor(v, q)
				child := st.clone()
				// the DFS is strictly sequential and probes fully reset
				// their buffer, so the whole search shares one buffer
				// instead of lazily growing one per cloned state
				child.pbuf = st.pbuf
				child.commit(v, plc)
				nm := curMax
				if plc.finish > nm {
					nm = plc.finish
				}
				// next ready set: drop v, add newly released successors
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
				// the child subtree is fully explored: recycle its engine
				// clone for the next branch
				f.scan.recycle(child.frontier)
			}
		}
	}
	dfs(s, ready, 0, 0)
	if best == nil {
		return nil, false, fmt.Errorf("heuristics: exhaustive search found no schedule within budget %d", nodeBudget)
	}
	return best, !exhausted, nil
}
