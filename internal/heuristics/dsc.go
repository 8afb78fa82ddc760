package heuristics

import (
	"math"
	"sort"

	"oneport/internal/graph"
	"oneport/internal/loadbalance"
	"oneport/internal/platform"
	"oneport/internal/sched"
)

// DSC implements a clustering scheduler in the spirit of Yang and
// Gerasoulis' Dominant Sequence Clustering (the paper's reference [27]),
// adapted to a bounded heterogeneous platform in three phases:
//
//  1. clustering on a virtual homogeneous machine (averaged costs): tasks
//     are visited in topological order by decreasing tlevel+blevel priority;
//     a task joins the cluster of one of its predecessors when appending it
//     there (zeroing that edge) lowers its estimated start time, otherwise
//     it opens a new cluster;
//  2. cluster mapping: clusters sorted by total work are placed LPT-style
//     on the physical processors, each going to the processor minimizing
//     its completion estimate (load + work)·t_p, which generalizes LPT to
//     different-speed processors (same criterion as the paper's optimal
//     distribution step);
//  3. final scheduling: with the allocation fixed, tasks are placed in
//     bottom-level order by the shared machinery, so all communications are
//     serialized according to the requested model.
//
// Phases 1–2 are estimates only; correctness (validated schedules under any
// model) comes entirely from phase 3.
func DSC(g *graph.Graph, pl *platform.Platform, model sched.Model) (*sched.Schedule, error) {
	return dscRun(g, pl, model, nil)
}

func dscRun(g *graph.Graph, pl *platform.Platform, model sched.Model, tune *Tuning) (*sched.Schedule, error) {
	s, err := newState(g, pl, model, tune)
	if err != nil {
		return nil, err
	}
	defer tune.reclaim(s)
	ef, cf := pl.AvgExecFactor(), pl.AvgLinkFactor()
	bl, err := g.BottomLevels(ef, cf)
	if err != nil {
		return nil, err
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}

	// phase 1: clustering with estimated start times on unlimited
	// homogeneous processors
	n := g.NumNodes()
	cluster := make([]int, n) // cluster id per task
	clusterEnd := make([]float64, 0, n)
	clusterWork := make([]float64, 0, n)
	est := make([]float64, n) // estimated start
	eft := make([]float64, n) // estimated finish
	// visit order: topological, and among independents the higher priority
	// (bottom level) first — approximating the dominant sequence
	byPrio := append([]int(nil), order...)
	sort.SliceStable(byPrio, func(i, j int) bool {
		// stable sort by descending blevel but never violating topo order:
		// sorting the whole topo order by blevel is safe because blevels
		// strictly decrease along edges with positive weights; for zero
		// weights stability keeps the topological relation
		return bl[byPrio[i]] > bl[byPrio[j]]
	})
	pos := make([]int, n)
	for i, v := range order {
		pos[v] = i
	}
	// guard: if the blevel sort broke the topological order (possible with
	// zero-weight tasks), fall back to plain topological order
	ok := true
	seen := make([]bool, n)
	for _, v := range byPrio {
		for _, a := range g.Pred(v) {
			if !seen[a.Node] {
				ok = false
			}
		}
		seen[v] = true
		if !ok {
			break
		}
	}
	if !ok {
		byPrio = order
	}

	for _, v := range byPrio {
		w := g.Weight(v) * ef
		// alone in a fresh cluster: pay every incoming communication
		aloneStart := 0.0
		for _, a := range g.Pred(v) {
			if c := eft[a.Node] + a.Data*cf; c > aloneStart {
				aloneStart = c
			}
		}
		bestC, bestStart := -1, aloneStart
		// joining a predecessor's cluster zeroes that edge but the task
		// must wait for the cluster to drain
		for _, a := range g.Pred(v) {
			c := cluster[a.Node]
			start := clusterEnd[c]
			for _, b := range g.Pred(v) {
				arr := eft[b.Node]
				if cluster[b.Node] != c {
					arr += b.Data * cf
				}
				if arr > start {
					start = arr
				}
			}
			if start < bestStart {
				bestC, bestStart = c, start
			}
		}
		if bestC == -1 {
			bestC = len(clusterEnd)
			clusterEnd = append(clusterEnd, 0)
			clusterWork = append(clusterWork, 0)
		}
		cluster[v] = bestC
		est[v] = bestStart
		eft[v] = bestStart + w
		clusterEnd[bestC] = eft[v]
		clusterWork[bestC] += g.Weight(v)
	}

	// phase 2: map clusters to processors, heaviest first
	ids := make([]int, len(clusterWork))
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(i, j int) bool { return clusterWork[ids[i]] > clusterWork[ids[j]] })
	procLoad := make([]float64, pl.NumProcs())
	clusterProc := make([]int, len(ids))
	for _, c := range ids {
		best, bestCost := 0, math.Inf(1)
		for q := 0; q < pl.NumProcs(); q++ {
			if cost := (procLoad[q] + clusterWork[c]) * pl.CycleTime(q); cost < bestCost {
				best, bestCost = q, cost
			}
		}
		clusterProc[c] = best
		procLoad[best] += clusterWork[c]
	}

	// phase 3: fixed-allocation list scheduling under the real model
	for _, v := range listOrder(g, bl) {
		s.commit(v, s.probe(v, clusterProc[cluster[v]]))
	}
	return s.sch, nil
}

// ILHALevels is the "first version" of ILHA described in §4.2: the graph is
// split into iso-levels of independent tasks by dependence depth; each
// level is distributed with the optimal load-balancing counts, tasks whose
// parents share a processor go back there when capacity remains, and the
// rest fill the fastest non-saturated processors. Unlike the final ILHA
// there is no bottom-level chunking (no parameter B): whole levels are
// placed at once.
func ILHALevels(g *graph.Graph, pl *platform.Platform, model sched.Model) (*sched.Schedule, error) {
	return ilhaLevelsRun(g, pl, model, nil)
}

func ilhaLevelsRun(g *graph.Graph, pl *platform.Platform, model sched.Model, tune *Tuning) (*sched.Schedule, error) {
	s, err := newState(g, pl, model, tune)
	if err != nil {
		return nil, err
	}
	defer tune.reclaim(s)
	levels, err := g.DepthLevels()
	if err != nil {
		return nil, err
	}
	bl, err := priorities(g, pl)
	if err != nil {
		return nil, err
	}
	for _, level := range levels {
		// priority order inside the level
		tasks := append([]int(nil), level...)
		sort.SliceStable(tasks, func(i, j int) bool {
			if bl[tasks[i]] != bl[tasks[j]] {
				return bl[tasks[i]] > bl[tasks[j]]
			}
			return tasks[i] < tasks[j]
		})
		var w float64
		for _, v := range tasks {
			w += g.Weight(v)
		}
		caps := loadbalance.Caps(w, pl.CycleTimes())
		load := make([]float64, pl.NumProcs())
		var rest []int
		for _, v := range tasks {
			proc, ncomms := dominantPredProc(s, v)
			if proc < 0 || ncomms > 0 || load[proc] >= caps[proc]-1e-9 {
				rest = append(rest, v)
				continue
			}
			s.commit(v, s.probe(v, proc))
			load[proc] += g.Weight(v)
		}
		speedOrder := pl.ProcsBySpeed()
		for _, v := range rest {
			// "allocate the task to the fastest processor that is not yet
			// saturated"; when all are saturated, earliest finish time
			proc := -1
			for _, q := range speedOrder {
				if load[q] < caps[q]-1e-9 {
					proc = q
					break
				}
			}
			var plc placement
			if proc >= 0 {
				plc = s.probe(v, proc)
			} else {
				plc = s.bestEFT(v, nil)
			}
			s.commit(v, plc)
			load[plc.proc] += g.Weight(v)
		}
	}
	return s.sch, nil
}
