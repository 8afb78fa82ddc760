package heuristics

import (
	"fmt"

	"oneport/internal/graph"
	"oneport/internal/platform"
	"oneport/internal/sched"
)

// This file implements the incremental re-schedule entry point used by the
// scheduling-session subsystem: after a graph delta, re-run only the
// invalidated suffix of a previous run instead of the whole heuristic.
//
// The key observation is that for the static-priority list heuristics —
// HEFT/PCT (bottom levels), HEFT-append, and BIL (imaginary levels) — the
// COMMIT ORDER is a pure function of (graph, priorities): the ready list
// pops by (priority desc, id asc) and the releaser tracks in-degrees, none
// of which depend on where tasks were placed. The order can therefore be
// simulated without a single probe. A task's PLACEMENT, in turn, is a pure
// function of its own probe inputs (weight, incoming edges, platform) and
// the committed timelines, which are determined by the placements before
// it. So after a delta, the longest prefix of the new commit order that
// (a) matches the previous order position by position and (b) contains no
// task whose own probe inputs the delta touched, commits to placements
// byte-identical to the previous run's — by induction over commits — and
// can be replayed verbatim from the recorded schedule, rebuilding the
// timelines without probing. Only the suffix runs the real probe loop, on
// warm state.
//
// "Rollback" is deliberately implemented as replay-forward: committed
// Intervals merge adjacent reservations, so un-committing is not defined —
// instead the state is rebuilt from zero by cheap verbatim commits
// (interval inserts, no probes), which is both simpler and sound under
// every communication model (commit applies the same recorded hops the
// cold run would re-derive).
//
// Dynamic-selection heuristics (DLS picks the next task from live probe
// scores; CPOP pins a globally-chosen critical path; ILHA/DSC build
// chunks/clusters from global structure) have no placement-independent
// order, so they fall back to a full recompute — still on the warm Scratch,
// just without a replayed prefix.

// PrevRun carries what the previous run of a session recorded: the commit
// order and the resulting schedule. Both are owned by the caller and only
// read here.
type PrevRun struct {
	Order    []int
	Schedule *sched.Schedule
}

// IncResult is the outcome of an incremental run. Order is the commit order
// of this run (nil when the heuristic has no simulable order — the next
// delta then recomputes in full), to be handed back as the next PrevRun.
// Replayed counts the prefix commits that were replayed without probing.
type IncResult struct {
	Schedule *sched.Schedule
	Order    []int
	Replayed int
}

// SupportsIncremental reports whether the named heuristic has a
// placement-independent commit order, i.e. whether RunIncremental can
// replay a prefix for it. Other registry names still run through
// RunIncremental — as full recomputes.
func SupportsIncremental(name string) bool {
	switch name {
	case "heft", "heft-append", "pct", "bil":
		return true
	}
	return false
}

// RunIncremental schedules g on pl under model with the named heuristic,
// replaying from prev the longest valid prefix of commits. dirty[v] marks
// tasks whose own probe inputs the delta changed (a new or re-costed
// incoming edge, a changed weight); tasks beyond len(dirty) are treated as
// clean, and new tasks cap the prefix by order mismatch anyway. Pass a nil
// prev (or nil dirty after a platform change — probes read every
// processor's speed, links and timelines, so no prefix survives one; the
// caller signals that by dropping prev) to run cold while still recording
// the order for the next delta.
//
// The result is byte-identical to a cold run of the same heuristic on
// (g, pl, model): the replayed prefix is byte-identical by the induction
// above, and the suffix runs the heuristic's own probe loop on identical
// committed state. Cancellation mirrors ByNameTuned: an expired Tuning.Ctx
// surfaces as an error satisfying errors.Is(err, ErrCanceled).
func RunIncremental(name string, g *graph.Graph, pl *platform.Platform, model sched.Model, opts ILHAOptions, tune *Tuning, prev *PrevRun, dirty []bool) (res *IncResult, err error) {
	if !SupportsIncremental(name) {
		f, err := ByNameTuned(name, opts, tune)
		if err != nil {
			return nil, err
		}
		sch, err := f(g, pl, model)
		if err != nil {
			return nil, err
		}
		return &IncResult{Schedule: sch}, nil
	}
	// the same cancellation boundary as ByNameTuned: commit raises a
	// runCanceled panic when Tuning.Ctx expires (including during replay —
	// replay commits pass the same cancellation point)
	defer func() {
		if r := recover(); r != nil {
			rc, ok := r.(runCanceled)
			if !ok {
				panic(r)
			}
			res, err = nil, fmt.Errorf("%w: %v", ErrCanceled, rc.err)
		}
	}()
	var prio []float64
	switch name {
	case "bil":
		prio, err = bilPriorities(g, pl)
	default:
		prio, err = priorities(g, pl)
	}
	if err != nil {
		return nil, err
	}
	s, err := newState(g, pl, model, tune)
	if err != nil {
		return nil, err
	}
	defer tune.reclaim(s)
	s.appendOnly = name == "heft-append"

	order, err := simulateOrder(g, prio)
	if err != nil {
		return nil, err
	}
	keep := validPrefix(order, prev, pl.NumProcs(), dirty)

	// replay: the previous run's comm events are recorded in commit order,
	// each commit's events grouped consecutively under ToTask = the
	// committed task, so the prefix consumes a prefix of prev Comms with a
	// single forward cursor. commit re-reserves the recorded hops on the
	// fresh timelines and copies them into this schedule.
	cur := 0
	for k := 0; k < keep; k++ {
		v := order[k]
		ev := &prev.Schedule.Tasks[v]
		lo := cur
		for cur < len(prev.Schedule.Comms) && prev.Schedule.Comms[cur].ToTask == v {
			cur++
		}
		s.commit(v, placement{
			proc:   ev.Proc,
			ready:  ev.Start,
			start:  ev.Start,
			finish: ev.Finish,
			comms:  prev.Schedule.Comms[lo:cur],
		})
	}
	// suffix: the heuristic's own probe loop; the simulated order already is
	// the exact pop sequence, so no ready list is needed
	for _, v := range order[keep:] {
		s.commit(v, s.bestEFT(v, nil))
	}
	return &IncResult{Schedule: s.sch, Order: order, Replayed: keep}, nil
}

// simulateOrder runs the ready-list/releaser machinery of the static
// list-scheduling loop without probing or committing, returning the exact
// pop sequence the real loop produces for these priorities.
func simulateOrder(g *graph.Graph, prio []float64) ([]int, error) {
	ready := newReadyList(prio)
	rel := newReleaser(g)
	for _, v := range rel.initial() {
		ready.push(v)
	}
	order := make([]int, 0, g.NumNodes())
	for !ready.empty() {
		v := ready.pop()
		order = append(order, v)
		for _, nv := range rel.release(v) {
			ready.push(nv)
		}
	}
	if !rel.done() {
		return nil, graph.ErrCycle
	}
	return order, nil
}

// validPrefix returns the number of leading commits of order that can be
// replayed from prev: the position-wise common prefix of the two orders,
// stopping at the first dirty task or at any inconsistency in the recorded
// run (missing placement, processor-count mismatch — then nothing replays).
// New tasks never extend the prefix: their ids exceed every id in the
// previous order, so they mismatch positionally.
func validPrefix(order []int, prev *PrevRun, procs int, dirty []bool) int {
	if prev == nil || prev.Schedule == nil || prev.Schedule.Procs != procs {
		return 0
	}
	n := len(prev.Order)
	if len(order) < n {
		n = len(order)
	}
	keep := 0
	for keep < n {
		v := order[keep]
		if v != prev.Order[keep] || (v < len(dirty) && dirty[v]) {
			break
		}
		if v >= len(prev.Schedule.Tasks) || !prev.Schedule.Tasks[v].Done {
			break
		}
		keep++
	}
	return keep
}
