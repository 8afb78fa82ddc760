package heuristics

import (
	"fmt"
	"sync"
	"testing"

	"oneport/internal/platform"
	"oneport/internal/sched"
	"oneport/internal/testbeds"
)

// TestConcurrentSchedulersTuned is the safety net of the per-run Tuning:
// many schedulers run concurrently, each with its own Scratch, and every
// run must produce a schedule identical to a run on the zero Tuning —
// per-run scratch must neither race (run under -race in CI) nor leak
// across concurrent runs.
func TestConcurrentSchedulersTuned(t *testing.T) {
	pl := platform.Paper()
	g := testbeds.ForkJoin(40, 10)
	lu := testbeds.LU(12, 10)

	refH, err := eftSchedule("heft", g, pl, sched.OnePort, nil)
	if err != nil {
		t.Fatal(err)
	}
	refI, err := ilhaRun(lu, pl, sched.OnePort, ILHAOptions{B: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tune := &Tuning{Scratch: NewScratch()}
			for rep := 0; rep < 3; rep++ {
				h, err := eftSchedule("heft", g, pl, sched.OnePort, tune)
				if err != nil {
					errs <- err
					return
				}
				if err := sameSchedule(refH, h); err != nil {
					errs <- fmt.Errorf("worker %d rep %d HEFT: %w", i, rep, err)
					return
				}
				s, err := ilhaRun(lu, pl, sched.OnePort, ILHAOptions{B: 7}, tune)
				if err != nil {
					errs <- err
					return
				}
				if err := sameSchedule(refI, s); err != nil {
					errs <- fmt.Errorf("worker %d rep %d ILHA: %w", i, rep, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// sameSchedule reports the first difference between two schedules, nil when
// identical (task events, comm events, hops — exact float equality).
func sameSchedule(a, b *sched.Schedule) error {
	if len(a.Tasks) != len(b.Tasks) || len(a.Comms) != len(b.Comms) {
		return fmt.Errorf("shape differs: %d/%d tasks, %d/%d comms",
			len(a.Tasks), len(b.Tasks), len(a.Comms), len(b.Comms))
	}
	for i := range a.Tasks {
		if a.Tasks[i] != b.Tasks[i] {
			return fmt.Errorf("task %d differs: %+v vs %+v", i, a.Tasks[i], b.Tasks[i])
		}
	}
	for i := range a.Comms {
		ca, cb := &a.Comms[i], &b.Comms[i]
		if ca.FromTask != cb.FromTask || ca.ToTask != cb.ToTask || ca.Data != cb.Data || len(ca.Hops) != len(cb.Hops) {
			return fmt.Errorf("comm %d differs: %+v vs %+v", i, ca, cb)
		}
		for j := range ca.Hops {
			if ca.Hops[j] != cb.Hops[j] {
				return fmt.Errorf("comm %d hop %d differs: %+v vs %+v", i, j, ca.Hops[j], cb.Hops[j])
			}
		}
	}
	return nil
}

// TestScratchReuse checks that one Scratch recycled across runs keeps
// producing the schedules of a fresh Scratch while the platform size
// changes under it: 3, then 32, then 10 processors, so the probe buffer
// grows past its capacity and then shrinks, then the routed line4, under
// every model (link contention routes on line4), for HEFT, ILHA and DLS.
// The second pass starts from the buffers the first one left. One-port
// comes last: the final DLS probe on 32 processors leaves processor 17's
// receive overlay in use, which the shrink to 10 must clear first.
func TestScratchReuse(t *testing.T) {
	small, err := platform.Homogeneous(3)
	if err != nil {
		t.Fatal(err)
	}
	platforms := []*platform.Platform{small, seededPlatform(t, 1, 32), platform.Paper(), linePlatform(4)}
	g := testbeds.LU(10, 10)
	tune := &Tuning{Scratch: NewScratch()}
	for rep := 0; rep < 2; rep++ {
		for _, pl := range platforms {
			for _, model := range []sched.Model{sched.MacroDataflow, sched.LinkContention, sched.UniPort, sched.OnePortNoOverlap, sched.OnePort} {
				for _, name := range []string{"heft", "ilha", "dls"} {
					fresh, err := ByNameTuned(name, ILHAOptions{}, &Tuning{Scratch: NewScratch()})
					if err != nil {
						t.Fatal(err)
					}
					want, err := fresh(g, pl, model)
					if err != nil {
						t.Fatal(err)
					}
					reused, err := ByNameTuned(name, ILHAOptions{}, tune)
					if err != nil {
						t.Fatal(err)
					}
					got, err := reused(g, pl, model)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameSchedule(want, got); err != nil {
						t.Fatalf("rep %d, %s on %d processors, %s: %v", rep, name, pl.NumProcs(), model, err)
					}
				}
			}
		}
	}
}
