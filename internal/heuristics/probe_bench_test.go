package heuristics

import (
	"testing"

	"oneport/internal/platform"
	"oneport/internal/sched"
	"oneport/internal/testbeds"
)

// halfScheduledLU schedules the first half of LU(n) on pl HEFT-style,
// under tune, so the returned task — the next ready one with at least two
// predecessors — has committed predecessors spread over several processors
// and busy timelines to search.
func halfScheduledLU(tb testing.TB, pl *platform.Platform, n int, tune *Tuning) (*state, int) {
	tb.Helper()
	g := testbeds.LU(n, 10)
	s, err := newState(g, pl, sched.OnePort, tune)
	if err != nil {
		tb.Fatal(err)
	}
	prio, err := priorities(g, pl)
	if err != nil {
		tb.Fatal(err)
	}
	ready := newReadyList(prio)
	rel := newReleaser(g)
	for _, v := range rel.initial() {
		ready.push(v)
	}
	for placed := 0; !ready.empty(); placed++ {
		v := ready.pop()
		if placed > g.NumNodes()/2 && len(s.preds(v)) >= 2 {
			return s, v
		}
		s.commit(v, s.bestEFT(v, nil))
		for _, nv := range rel.release(v) {
			ready.push(nv)
		}
	}
	tb.Fatal("no suitable half-scheduled task found")
	return nil, -1
}

// BenchmarkProbeMicro isolates one probe call — the innermost unit of every
// heuristic's hot loop — on a half-scheduled LU(30) on the paper platform,
// so the zero-allocation claim of the scratch-buffer probe path is directly
// visible in allocs/op.
func BenchmarkProbeMicro(b *testing.B) {
	s, target := halfScheduledLU(b, platform.Paper(), 30, nil)
	preds := s.preds(target)
	buf := s.buf()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.probeAgainst(buf, target, i%s.pl.NumProcs(), preds, nil, 0)
	}
}

// BenchmarkBestEFT times one whole earliest-finish scan — sender releases,
// bounds, seed probe, survivor probes cut at the incumbent — on
// BenchmarkProbeMicro's task.
func BenchmarkBestEFT(b *testing.B) {
	s, target := halfScheduledLU(b, platform.Paper(), 30, nil)
	b.ReportAllocs()
	for b.Loop() {
		s.bestEFT(target, nil)
	}
}

// TestBestEFTAllocs is the allocation gate of the scan: once its scratch
// (releases, bounds, the stash) has grown, a bestEFT allocates nothing —
// on BenchmarkProbeMicro's task on the dense paper platform, and on a
// half-scheduled LU(20) on a 4-processor line, whose messages are routed
// hop by hop.
func TestBestEFTAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation inflates allocation counts")
	}
	for _, c := range []struct {
		name string
		pl   *platform.Platform
		n    int
	}{
		{"paper", platform.Paper(), 30},
		{"line4", linePlatform(4), 20},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, target := halfScheduledLU(t, c.pl, c.n, nil)
			s.bestEFT(target, nil)
			if got := testing.AllocsPerRun(100, func() { s.bestEFT(target, nil) }); got != 0 {
				t.Fatalf("warm bestEFT: %v allocations per scan, want 0", got)
			}
		})
	}
}
