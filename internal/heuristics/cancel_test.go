package heuristics

import (
	"context"
	"errors"
	"testing"
	"time"

	"oneport/internal/platform"
	"oneport/internal/sched"
	"oneport/internal/testbeds"
)

// countdownCtx is a context.Context whose Err starts failing after a fixed
// number of Err calls — a deterministic stand-in for a deadline that
// expires mid-run (commit polls Err once per task placement).
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left--; c.left < 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// TestTuningCtxCancelsRun: an expired Tuning.Ctx aborts the run with an
// error satisfying errors.Is(err, ErrCanceled) — before the first commit
// or mid-run alike — for list heuristics, DLS's whole-frontier scan and
// the exhaustive search; and the Scratch a canceled run borrowed is
// reclaimed intact: the next run on it completes and matches a fresh
// reference schedule.
func TestTuningCtxCancelsRun(t *testing.T) {
	g := testbeds.LU(16, 10)
	pl := platform.Paper()
	for _, name := range []string{"heft", "dls", "cpop", "ilha", "exhaustive-safe"} {
		heur := name
		if heur == "exhaustive-safe" {
			heur = "dls" // exhaustive has no registry name; dls covers the whole-frontier scan
		}
		t.Run(name, func(t *testing.T) {
			sc := NewScratch()

			// already expired: aborts at the first commit
			done, cancel := context.WithCancel(context.Background())
			cancel()
			fn, err := ByNameTuned(heur, ILHAOptions{}, &Tuning{Scratch: sc, Ctx: done})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fn(g, pl, sched.OnePort); !errors.Is(err, ErrCanceled) {
				t.Fatalf("expired ctx: err = %v, want ErrCanceled", err)
			}

			// expires mid-run, after a few commits
			mid := &countdownCtx{Context: context.Background(), left: 3}
			fn, err = ByNameTuned(heur, ILHAOptions{}, &Tuning{Scratch: sc, Ctx: mid})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fn(g, pl, sched.OnePort); !errors.Is(err, ErrCanceled) {
				t.Fatalf("mid-run expiry: err = %v, want ErrCanceled", err)
			}

			// the Scratch survives both aborts: a clean run on it matches a
			// scratch-free reference byte for byte
			fn, err = ByNameTuned(heur, ILHAOptions{}, &Tuning{Scratch: sc})
			if err != nil {
				t.Fatal(err)
			}
			got, err := fn(g, pl, sched.OnePort)
			if err != nil {
				t.Fatalf("post-cancel run failed: %v", err)
			}
			ref, err := ByName(heur, ILHAOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref(g, pl, sched.OnePort)
			if err != nil {
				t.Fatal(err)
			}
			if got.Makespan() != want.Makespan() || len(got.Tasks) != len(want.Tasks) || len(got.Comms) != len(want.Comms) {
				t.Fatalf("post-cancel schedule differs: makespan %v vs %v", got.Makespan(), want.Makespan())
			}
		})
	}

	// a generous deadline never fires: the run completes normally
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	fn, err := ByNameTuned("heft", ILHAOptions{}, &Tuning{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fn(g, pl, sched.OnePort); err != nil {
		t.Fatalf("unexpired ctx aborted the run: %v", err)
	}
}
