package heuristics

import (
	"fmt"
	"math/rand"

	"oneport/internal/graph"
	"oneport/internal/platform"
	"oneport/internal/sched"
)

// This file implements the §4.4 suggestion that after an allocation is
// fixed, "we could use greedy-like heuristics to improve the scheduling"
// — the full problem being the NP-complete COMM-SCHED. FixedAlloc is the
// greedy rescheduler; Improve wraps it in a stochastic search over task
// orderings.

// FixedAlloc schedules g with a predetermined task-to-processor allocation:
// tasks are placed in decreasing priority order (defaulting to the paper's
// averaged bottom levels) on their fixed processor, with every
// communication serialized greedily under the model. It returns an error if
// alloc has the wrong length or names an invalid processor.
func FixedAlloc(g *graph.Graph, pl *platform.Platform, model sched.Model, alloc []int, prio []float64) (*sched.Schedule, error) {
	if len(alloc) != g.NumNodes() {
		return nil, fmt.Errorf("heuristics: alloc has %d entries, graph has %d tasks", len(alloc), g.NumNodes())
	}
	for v, p := range alloc {
		if p < 0 || p >= pl.NumProcs() {
			return nil, fmt.Errorf("heuristics: task %d allocated to invalid processor %d", v, p)
		}
	}
	s, err := newState(g, pl, model, nil)
	if err != nil {
		return nil, err
	}
	if prio == nil {
		prio, err = priorities(g, pl)
		if err != nil {
			return nil, err
		}
	} else if len(prio) != g.NumNodes() {
		return nil, fmt.Errorf("heuristics: prio has %d entries, graph has %d tasks", len(prio), g.NumNodes())
	}
	for _, v := range listOrder(g, prio) {
		s.commit(v, s.probe(v, alloc[v]))
	}
	return s.sch, nil
}

// Improve takes any complete schedule and searches for a better one with
// the *same allocation* by rescheduling under randomly perturbed task
// priorities (COMM-SCHED is NP-complete, so this is a heuristic search).
// It runs iters rescheduling rounds and returns the best schedule found —
// never worse than a plain FixedAlloc greedy pass and never changing a
// task's processor. Deterministic for a fixed seed.
func Improve(g *graph.Graph, pl *platform.Platform, model sched.Model, s *sched.Schedule, iters int, seed int64) (*sched.Schedule, error) {
	alloc := make([]int, g.NumNodes())
	for v := range alloc {
		alloc[v] = s.Proc(v)
		if alloc[v] < 0 {
			return nil, fmt.Errorf("heuristics: Improve needs a complete schedule (task %d unscheduled)", v)
		}
	}
	base, err := priorities(g, pl)
	if err != nil {
		return nil, err
	}
	best, err := FixedAlloc(g, pl, model, alloc, base)
	if err != nil {
		return nil, err
	}
	if s.Makespan() < best.Makespan() {
		best = s
	}
	if iters <= 0 {
		return best, nil
	}
	r := rand.New(rand.NewSource(seed))
	scale := 0.0
	for _, b := range base {
		if b > scale {
			scale = b
		}
	}
	prio := make([]float64, len(base))
	for it := 0; it < iters; it++ {
		// jitter priorities by up to ±10% of the largest bottom level;
		// precedence feasibility is preserved by the ready-list mechanism,
		// only the tie-breaking and interleaving change
		for v := range prio {
			prio[v] = base[v] + (r.Float64()-0.5)*0.2*scale
		}
		cand, err := FixedAlloc(g, pl, model, alloc, prio)
		if err != nil {
			return nil, err
		}
		if cand.Makespan() < best.Makespan() {
			best = cand
		}
	}
	return best, nil
}
