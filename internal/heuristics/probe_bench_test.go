package heuristics

import (
	"fmt"
	"testing"

	"oneport/internal/graph"
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
	for !ready.empty() {
		v := ready.pop()
		if rl := rel.placed; rl > g.NumNodes()/2 && len(s.preds(v)) >= 2 {
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
	buf := s.buf(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.probeWith(buf, target, i%s.pl.NumProcs(), preds)
	}
}

// BenchmarkBestEFT times one whole earliest-finish scan — sender releases,
// bounds, seed probe, survivor probes cut at the incumbent — on
// BenchmarkProbeMicro's task, at probe parallelism 1.
func BenchmarkBestEFT(b *testing.B) {
	s, target := halfScheduledLU(b, platform.Paper(), 30, &Tuning{ProbeParallelism: 1})
	b.ReportAllocs()
	for b.Loop() {
		s.bestEFT(target, nil)
	}
}

// TestBestEFTAllocs is the allocation gate of the scan: once its scratch
// (releases, bounds, surviving positions, the stash) has grown, a bestEFT
// at probe parallelism 1 allocates nothing — on BenchmarkProbeMicro's task
// on the dense paper platform, and on a half-scheduled LU(20) on a
// 4-processor line, whose messages are routed hop by hop.
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
			s, target := halfScheduledLU(t, c.pl, c.n, &Tuning{ProbeParallelism: 1})
			s.bestEFT(target, nil)
			if got := testing.AllocsPerRun(100, func() { s.bestEFT(target, nil) }); got != 0 {
				t.Fatalf("warm bestEFT: %v allocations per scan, want 0", got)
			}
		})
	}
}

// BenchmarkProbeGrain is the sweep probeParallelGrain is set from: one pass
// over a kernel-like mix — the six paper testbeds at half their figure
// sizes under HEFT, ILHA, CPOP, DLS and BIL, one-port, on the paper
// platform and a 32-processor one — at probe parallelism 2, once per grain
// tried. The "never" case never fans out: the mix's parallelism-1 cost.
//
//	go test -run '^$' -bench ProbeGrain -count 5 ./internal/heuristics
func BenchmarkProbeGrain(b *testing.B) {
	cycles := make([]float64, 32)
	for q := range cycles {
		cycles[q] = []float64{3, 5, 6, 10, 15}[q%5]
	}
	wide, err := platform.Uniform(cycles, 1)
	if err != nil {
		b.Fatal(err)
	}
	sizes := map[string]int{"forkjoin": 150, "lu": 30, "laplace": 20, "ldmt": 20, "doolittle": 30, "stencil": 20}
	type run struct {
		g  *graph.Graph
		pl *platform.Platform
		fn Func
	}
	var mix []run
	for _, pl := range []*platform.Platform{platform.Paper(), wide} {
		tune := &Tuning{ProbeParallelism: 2, Scratch: NewScratch()}
		for _, tb := range []string{"forkjoin", "lu", "laplace", "ldmt", "doolittle", "stencil"} {
			g, err := testbeds.ByName(tb, sizes[tb], 10)
			if err != nil {
				b.Fatal(err)
			}
			for _, h := range []string{"heft", "ilha", "cpop", "dls", "bil"} {
				fn, err := ByNameTuned(h, ILHAOptions{}, tune)
				if err != nil {
					b.Fatal(err)
				}
				mix = append(mix, run{g, pl, fn})
			}
		}
	}
	old := probeParallelGrain
	defer func() { probeParallelGrain = old }()
	for _, grain := range []int{16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 1 << 30} {
		name := fmt.Sprint(grain)
		if grain == 1<<30 {
			name = "never"
		}
		b.Run(name, func(b *testing.B) {
			probeParallelGrain = grain
			for i := 0; i < b.N; i++ {
				for _, r := range mix {
					if _, err := r.fn(r.g, r.pl, sched.OnePort); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
