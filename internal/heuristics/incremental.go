package heuristics

import (
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
// of which depend on where tasks were placed. The order is therefore
// computed without a single probe (listOrder). A task's PLACEMENT, in
// turn, is a pure function of its own probe inputs (weight, incoming
// edges, platform) and the committed timelines, which are determined by
// the placements before it. So after a delta, the longest prefix of the
// new commit order that (a) matches the previous order position by
// position and (b) contains no task whose own probe inputs the delta
// touched, commits to placements byte-identical to the previous run's —
// by induction over commits — and can be replayed verbatim from the
// recorded schedule, rebuilding the timelines without probing. Only the
// suffix runs the real probe loop, on warm state.
//
// "Rollback" is deliberately implemented as replay-forward: committed
// Intervals merge adjacent reservations, so un-committing is not defined —
// instead the state is rebuilt from zero by cheap verbatim commits
// (interval inserts, no probes), which is both simpler and sound under
// every communication model (commit applies the same recorded hops the
// cold run would re-derive).
//
// The other heuristics fall back to a full recompute — still on the warm
// Scratch, just without a replayed prefix. DLS picks the next task from
// live probe scores and ILHA pops chunks, so neither has a
// placement-independent order; CPOP and DSC commit in listOrder but place
// by global structure (the critical path and its processor, the
// clusters), which a delta anywhere can change.

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
// above, and the suffix is placed by the same bestEFT loop on identical
// committed state, because a cold run of these heuristics is the same
// runner (eftRun) with no previous run. Cancellation mirrors ByNameTuned:
// an expired Tuning.Ctx surfaces as an error satisfying
// errors.Is(err, ErrCanceled).
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
	// replay commits pass the same cancellation point as probed ones
	defer recoverCanceled(&err)
	return eftRun(name, g, pl, model, tune, prev, dirty)
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
