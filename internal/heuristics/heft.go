package heuristics

import (
	"oneport/internal/graph"
	"oneport/internal/platform"
	"oneport/internal/sched"
)

// HEFT implements the Heterogeneous Earliest Finish Time heuristic of
// Topcuoglu, Hariri and Wu, extended to the bi-directional one-port model as
// described in §4.3 of the paper:
//
//   - bottom levels (computed with the harmonic-mean averaging of §4.1)
//     give static task priorities;
//   - at each step the highest-priority ready task is selected;
//   - the task goes to the processor giving the earliest finish time, where
//     the finish time accounts for scheduling every incoming communication
//     greedily, as early as possible, under the one-port constraint: a
//     message needs a common free window on the sender's send port and the
//     receiver's receive port (and, on sparse platforms, on every routed
//     hop in sequence);
//   - compute and port timelines use insertion (gaps between existing
//     reservations are reused).
//
// With model == sched.MacroDataflow the same code degenerates to classical
// HEFT: communications are pure delays and ports are unlimited.
func HEFT(g *graph.Graph, pl *platform.Platform, model sched.Model) (*sched.Schedule, error) {
	return eftSchedule("heft", g, pl, model, nil)
}

// HEFTAppend is HEFT with the insertion policy disabled: a task always goes
// after the last reservation of its processor, never into an earlier hole.
// It exists to quantify what insertion buys (an ablation DESIGN.md calls
// out); classic HEFT's insertion is usually a few percent better.
func HEFTAppend(g *graph.Graph, pl *platform.Platform, model sched.Model) (*sched.Schedule, error) {
	return eftSchedule("heft-append", g, pl, model, nil)
}

// eftSchedule is a cold eftRun: no previous run to replay from.
func eftSchedule(name string, g *graph.Graph, pl *platform.Platform, model sched.Model, tune *Tuning) (*sched.Schedule, error) {
	res, err := eftRun(name, g, pl, model, tune, nil, nil)
	if err != nil {
		return nil, err
	}
	return res.Schedule, nil
}

// eftRun is the one runner of the static-order earliest-finish heuristics
// — heft and pct (bottom levels), heft-append (bottom levels, no
// insertion) and bil (imaginary levels, bilPriorities) — for cold and
// incremental runs alike. It commits the tasks in listOrder, replaying the
// first validPrefix(order, prev, …) of them from prev's schedule without
// probing and placing the rest with bestEFT; a nil prev replays nothing,
// which is the cold run. See RunIncremental for why the replayed prefix is
// byte-identical to a cold run's.
func eftRun(name string, g *graph.Graph, pl *platform.Platform, model sched.Model, tune *Tuning, prev *PrevRun, dirty []bool) (*IncResult, error) {
	s, err := newState(g, pl, model, tune)
	if err != nil {
		return nil, err
	}
	defer tune.reclaim(s)
	s.appendOnly = name == "heft-append"
	var prio []float64
	if name == "bil" {
		prio, err = bilPriorities(g, pl)
	} else {
		prio, err = priorities(g, pl)
	}
	if err != nil {
		return nil, err
	}
	order := listOrder(g, prio)
	keep := validPrefix(order, prev, pl.NumProcs(), dirty)
	// replay: the previous run's comm events are recorded in commit order,
	// each commit's events grouped consecutively under ToTask = the
	// committed task, so the prefix consumes a prefix of prev Comms with a
	// single forward cursor. commit re-reserves the recorded hops on the
	// fresh timelines and copies them into this schedule.
	cur := 0
	for _, v := range order[:keep] {
		ev := &prev.Schedule.Tasks[v]
		lo := cur
		for cur < len(prev.Schedule.Comms) && prev.Schedule.Comms[cur].ToTask == v {
			cur++
		}
		s.commit(v, placement{
			proc:   ev.Proc,
			start:  ev.Start,
			finish: ev.Finish,
			comms:  prev.Schedule.Comms[lo:cur],
		})
	}
	for _, v := range order[keep:] {
		s.commit(v, s.bestEFT(v, nil))
	}
	return &IncResult{Schedule: s.sch, Order: order, Replayed: keep}, nil
}
