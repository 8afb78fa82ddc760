package heuristics

import (
	"fmt"

	"oneport/internal/graph"
	"oneport/internal/loadbalance"
	"oneport/internal/platform"
	"oneport/internal/sched"
)

// ILHAOptions tunes the Iso-Level Heterogeneous Allocation heuristic.
type ILHAOptions struct {
	// B is the maximal number of ready tasks considered per decision step.
	// B = 0 selects the platform's perfect-balance count (38 for the paper
	// platform) when the cycle-times are integers, or the processor count
	// otherwise. The paper requires B >= number of processors; smaller
	// positive values are clamped up.
	B int

	// ScanDepth is the number of communications Step 1 tolerates when
	// grouping a task with its predecessors. The paper's Step 1 uses 0
	// (only tasks all of whose parents live on one processor); §4.4 suggests
	// "another scan for tasks that can be scheduled at the price of a single
	// communication, and so on" — ScanDepth = k accepts tasks with at most
	// k predecessors away from the chosen processor.
	ScanDepth int

	// CapStep2 additionally enforces the load-balancing capacities during
	// Step 2: a processor whose accumulated chunk workload has reached its
	// share is skipped (unless every processor is saturated, in which case
	// all are considered to guarantee progress). The paper's one-port Step 2
	// is plain earliest-finish-time, so the default is false.
	CapStep2 bool

	// RescheduleComms enables the third step discussed in §4.4: after Steps
	// 1 and 2 fix the chunk's allocation, all placements of the chunk are
	// discarded and the tasks are rescheduled (in priority order, with the
	// known allocation) so communications can be re-packed. The underlying
	// problem, COMM-SCHED, is NP-complete (paper appendix); this greedy
	// pass is the suggested heuristic.
	RescheduleComms bool
}

// ILHA implements the paper's Iso-Level Heterogeneous Allocation heuristic
// under the given communication model (§4.2 for macro-dataflow, §4.4 for the
// one-port adaptation):
//
//   - ready tasks are kept sorted by decreasing bottom level and consumed in
//     chunks of B;
//   - Step 1 scans the chunk and places every task whose parents all sit on
//     one processor onto that processor — generating no communication —
//     provided the processor has not exceeded its load-balancing share
//     c_i·W of the chunk's total weight W;
//   - Step 2 places the remaining tasks HEFT-style, on the processor giving
//     the earliest finish time with communications serialized under the
//     one-port constraint.
func ILHA(g *graph.Graph, pl *platform.Platform, model sched.Model, opts ILHAOptions) (*sched.Schedule, error) {
	return ilhaRun(g, pl, model, opts, nil)
}

func ilhaRun(g *graph.Graph, pl *platform.Platform, model sched.Model, opts ILHAOptions, tune *Tuning) (*sched.Schedule, error) {
	b := opts.B
	if b == 0 {
		if pb, err := pl.PerfectBalanceCount(); err == nil {
			b = pb
		} else {
			b = pl.NumProcs()
		}
	}
	if b < 0 {
		return nil, fmt.Errorf("heuristics: ILHA B = %d must be non-negative", b)
	}
	if b == 0 {
		b = 1
	}
	// The paper remarks that B "must be at least equal to the number of
	// processors, otherwise some processors would be kept idle", yet its own
	// best LU configuration is B = 4 on 10 processors (§5.3): a small chunk
	// only restricts the *grouping* horizon, Step 2 still spreads tasks over
	// every processor across successive chunks. We therefore accept any
	// B >= 1 rather than clamping.
	if opts.ScanDepth < 0 {
		return nil, fmt.Errorf("heuristics: ILHA ScanDepth = %d must be non-negative", opts.ScanDepth)
	}

	s, err := newState(g, pl, model, tune)
	if err != nil {
		return nil, err
	}
	defer tune.reclaim(s)
	prio, err := priorities(g, pl)
	if err != nil {
		return nil, err
	}
	ready := newReadyList(prio)
	rel := newReleaser(g)
	for _, v := range rel.initial() {
		ready.push(v)
	}

	for !ready.empty() {
		chunk := ready.popN(b)
		var st *state
		if opts.RescheduleComms {
			// decide the allocation on a scratch copy, then re-place the
			// chunk on the real state with the allocation fixed
			st = s.clone()
		} else {
			st = s
		}
		alloc := scheduleChunk(st, chunk, opts)
		if opts.RescheduleComms {
			rescheduleChunk(s, chunk, alloc)
		}
		for _, v := range chunk {
			for _, nv := range rel.release(v) {
				ready.push(nv)
			}
		}
	}
	return s.sch, nil
}

// scheduleChunk runs Steps 1 and 2 on the given state and returns the
// resulting allocation (task -> processor).
func scheduleChunk(s *state, chunk []int, opts ILHAOptions) map[int]int {
	p := s.pl.NumProcs()
	var w float64
	for _, v := range chunk {
		w += s.g.Weight(v)
	}
	caps := loadbalance.Caps(w, s.pl.CycleTimes())
	load := make([]float64, p)
	alloc := make(map[int]int, len(chunk))

	// Step 1: no-communication (or <= ScanDepth communications) grouping.
	// Scans run in priority order (the chunk is already sorted).
	remaining := make([]int, 0, len(chunk))
	for _, v := range chunk {
		proc, ncomms := dominantPredProc(s, v)
		if proc < 0 || ncomms > opts.ScanDepth {
			remaining = append(remaining, v)
			continue
		}
		if load[proc] >= caps[proc]-1e-9 {
			// §4.4 Step 1: assign "provided that the current workload of Pi
			// does not exceed the fraction ciW"; the check is on the
			// workload *before* the assignment, so a processor may overshoot
			// its share by at most one task (tasks are indivisible).
			remaining = append(remaining, v)
			continue
		}
		s.commit(v, s.probe(v, proc))
		load[proc] += s.g.Weight(v)
		alloc[v] = proc
	}

	// Step 2: HEFT-style earliest finish time for the rest.
	for _, v := range remaining {
		var candidates []int
		if opts.CapStep2 {
			for q := 0; q < p; q++ {
				if load[q] < caps[q]-1e-9 {
					candidates = append(candidates, q)
				}
			}
			// all saturated: fall back to every processor so the task is
			// still placed
		}
		best := s.bestEFT(v, candidates)
		s.commit(v, best)
		load[best.proc] += s.g.Weight(v)
		alloc[v] = best.proc
	}
	return alloc
}

// dominantPredProc returns the processor hosting the largest number of v's
// predecessors (ties to the lowest processor index) and the number of
// communications an assignment of v to that processor would require (the
// number of predecessors living elsewhere). Tasks without predecessors
// return (-1, 0): there is no processor to group with.
func dominantPredProc(s *state, v int) (proc, comms int) {
	adj := s.g.Pred(v)
	if len(adj) == 0 {
		return -1, 0
	}
	// processor-indexed counting on state scratch: O(preds + touched procs),
	// allocation-free after the first call, and safe for wide fan-ins (the
	// fork-join join task has hundreds of predecessors)
	counts := s.predCount
	if len(counts) < s.pl.NumProcs() {
		counts = make([]int, s.pl.NumProcs())
		s.predCount = counts
	}
	// incremental argmax: a processor wins the moment it reaches a higher
	// count, ties to the lower index — the same (max count, lowest proc)
	// winner the counting map produced
	best, bestCount := -1, -1
	for _, a := range adj {
		q := s.sch.Tasks[a.Node].Proc
		counts[q]++
		if c := counts[q]; c > bestCount || (c == bestCount && q < best) {
			best, bestCount = q, c
		}
	}
	for _, a := range adj {
		counts[s.sch.Tasks[a.Node].Proc] = 0
	}
	return best, len(adj) - bestCount
}

// rescheduleChunk re-places an already-allocated chunk on the real state:
// tasks keep their allocation but all timings (including communications) are
// recomputed greedily in priority order. This is the "third step" of §4.4.
func rescheduleChunk(s *state, chunk []int, alloc map[int]int) {
	for _, v := range chunk {
		s.commit(v, s.probe(v, alloc[v]))
	}
}
