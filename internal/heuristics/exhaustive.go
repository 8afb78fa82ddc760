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
// Each DFS node bounds the start of every (ready task, processor) pair
// without probing (startBounds, the bound bestEFT prunes on) and probes
// only the pairs that bound cannot prune, so pruning and expansion order —
// and therefore the result and the completion flag — are those of the
// search that probes every pair.
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

	// starts[d*np:(d+1)*np] is the start-bound row of the node at depth d:
	// a node's row must outlive its children's searches
	starts := make([]float64, n*np)
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
		row := starts[placed*np : (placed+1)*np]
		for ri, v := range ready {
			st.startBounds(row, v)
			for q, bound := range row {
				// prune on the bound first: it lower-bounds the start, so the
				// search that probes every pair prunes this one too; a pair
				// that survives is judged on its exact start, which a bound
				// below it must not stand in for
				if bound+blw[v] >= bestSpan {
					continue
				}
				plc := st.probe(v, q)
				if plc.start+blw[v] >= bestSpan {
					continue
				}
				// the pair would expand: only now may the budget cut it off,
				// and doing so means the search did not run to completion,
				// while pairs the bounds dispose of are legitimately finished
				// work at any node count
				if nodes >= nodeBudget {
					exhausted = true
					return
				}
				child := st.clone()
				// the DFS is strictly sequential, and probes and bounds refill
				// their scratch on every call, so the whole search shares the
				// root's probe buffer and predecessor and release scratch
				// instead of lazily growing them per cloned state
				child.pbuf, child.predBuf, child.releases = st.pbuf, st.predBuf, st.releases
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
			}
		}
	}
	dfs(s, ready, 0, 0)
	if best == nil {
		return nil, false, fmt.Errorf("heuristics: exhaustive search found no schedule within budget %d", nodeBudget)
	}
	return best, !exhausted, nil
}
