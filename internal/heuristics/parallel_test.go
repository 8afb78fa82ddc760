package heuristics

import (
	"fmt"
	"reflect"
	"testing"

	"oneport/internal/graph"
	"oneport/internal/platform"
	"oneport/internal/sched"
	"oneport/internal/testbeds"
)

// TestParallelBestEFTDeterminism is the safety net of the parallel probe
// path: for every communication model, HEFT and ILHA must produce schedules
// identical — task starts, processors, and every communication hop — to a
// sequential reference run. Candidate probes are pure functions of the
// committed timelines, so the parallel fan-out with its (finish, candidate
// position) reduction must be bit-for-bit equivalent to the sequential loop.
// Run under -race this also exercises the data-sharing argument.
func TestParallelBestEFTDeterminism(t *testing.T) {
	pl := platform.Paper()
	graphs := map[string]*graph.Graph{
		// fork-join has a join task with many cross-processor predecessors,
		// guaranteeing the fan-out actually engages above the grain cut-over
		"forkjoin": testbeds.ForkJoin(40, 10),
		"lu":       testbeds.LU(12, 10),
		"stencil":  testbeds.Stencil(10, 10),
	}

	oldGrain := probeParallelGrain
	probeParallelGrain = 2 // force the parallel path onto nearly every task
	defer func() { probeParallelGrain = oldGrain }()

	for name, g := range graphs {
		for _, model := range sched.Models() {
			t.Run(fmt.Sprintf("%s/%s", name, model), func(t *testing.T) {

				seq, par := &Tuning{ProbeParallelism: 1}, &Tuning{ProbeParallelism: 8}
				seqH, errH := heftRun(g, pl, model, false, seq)
				seqI, errI := ilhaRun(g, pl, model, ILHAOptions{B: 7}, seq)
				parH, errPH := heftRun(g, pl, model, false, par)
				parI, errPI := ilhaRun(g, pl, model, ILHAOptions{B: 7}, par)

				for _, err := range []error{errH, errI, errPH, errPI} {
					if err != nil {
						t.Fatal(err)
					}
				}
				compareSchedules(t, "HEFT", seqH, parH)
				compareSchedules(t, "ILHA", seqI, parI)
			})
		}
	}
}

// compareSchedules requires exact equality: same task events (start, finish,
// processor) and the same comm events with the same hops in the same order.
func compareSchedules(t *testing.T, label string, seq, par *sched.Schedule) {
	t.Helper()
	if !reflect.DeepEqual(seq.Tasks, par.Tasks) {
		for i := range seq.Tasks {
			if !reflect.DeepEqual(seq.Tasks[i], par.Tasks[i]) {
				t.Fatalf("%s: task %d differs: seq %+v, par %+v", label, i, seq.Tasks[i], par.Tasks[i])
			}
		}
		t.Fatalf("%s: task events differ", label)
	}
	if len(seq.Comms) != len(par.Comms) {
		t.Fatalf("%s: comm count differs: seq %d, par %d", label, len(seq.Comms), len(par.Comms))
	}
	for i := range seq.Comms {
		if !reflect.DeepEqual(seq.Comms[i], par.Comms[i]) {
			t.Fatalf("%s: comm %d differs: seq %+v, par %+v", label, i, seq.Comms[i], par.Comms[i])
		}
	}
}
