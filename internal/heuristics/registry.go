package heuristics

import (
	"fmt"
	"sort"

	"oneport/internal/graph"
	"oneport/internal/platform"
	"oneport/internal/sched"
)

// Func is the common shape of every scheduling heuristic in the package.
type Func func(*graph.Graph, *platform.Platform, sched.Model) (*sched.Schedule, error)

// ByName returns the heuristic registered under name. ILHA options are bound
// from opts (other heuristics ignore them). Known names: heft, heft-append,
// ilha, ilha-levels, dsc, cpop, dls, gdl (alias of dls), bil, pct,
// roundrobin, random.
func ByName(name string, opts ILHAOptions) (Func, error) {
	return ByNameTuned(name, opts, nil)
}

// ByNameTuned is ByName with a per-run Tuning bound into the returned Func:
// every invocation runs with the Tuning's scratch and deadline. The same one-run-at-a-time rule as
// Tuning applies to the returned Func when the Tuning carries a Scratch.
func ByNameTuned(name string, opts ILHAOptions, tune *Tuning) (Func, error) {
	run := func(f func(*graph.Graph, *platform.Platform, sched.Model, *Tuning) (*sched.Schedule, error)) Func {
		return func(g *graph.Graph, pl *platform.Platform, m sched.Model) (sch *sched.Schedule, err error) {
			defer recoverCanceled(&err)
			return f(g, pl, m, tune)
		}
	}
	switch name {
	case "heft", "heft-append", "bil", "pct": // eftRun's heuristics; PCT's port is structurally HEFT (see its doc comment)
		return run(func(g *graph.Graph, pl *platform.Platform, m sched.Model, t *Tuning) (*sched.Schedule, error) {
			return eftSchedule(name, g, pl, m, t)
		}), nil
	case "dsc":
		return run(dscRun), nil
	case "ilha-levels":
		return run(ilhaLevelsRun), nil
	case "ilha":
		return run(func(g *graph.Graph, pl *platform.Platform, m sched.Model, t *Tuning) (*sched.Schedule, error) {
			return ilhaRun(g, pl, m, opts, t)
		}), nil
	case "cpop":
		return run(cpopRun), nil
	case "dls", "gdl":
		return run(dlsRun), nil
	case "roundrobin":
		return run(roundRobinRun), nil
	case "random":
		return run(func(g *graph.Graph, pl *platform.Platform, m sched.Model, t *Tuning) (*sched.Schedule, error) {
			return randomRun(g, pl, m, 1, t)
		}), nil
	default:
		return nil, fmt.Errorf("heuristics: unknown heuristic %q (known: %v)", name, Names())
	}
}

// Names lists the registered heuristic names.
func Names() []string {
	names := []string{"heft", "heft-append", "ilha", "ilha-levels", "dsc", "cpop", "dls", "bil", "pct", "roundrobin", "random"}
	sort.Strings(names)
	return names
}
