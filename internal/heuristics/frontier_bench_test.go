package heuristics

import (
	"testing"

	"oneport/internal/graph"
	"oneport/internal/platform"
	"oneport/internal/sched"
	"oneport/internal/testbeds"
)

// Benchmarks for the whole-frontier scans of DLS and the Exhaustive search
// at the fig7/fig8 benchmark scales (FORK-JOIN 300, LU 60). The *_Reference
// variants run the loops preserved in reference_test.go, which probe every
// pair at every step, so the win of bounding before probing stays
// measurable in one binary:
//
//	go test -bench 'DLS|Exhaustive' -benchtime 2x ./internal/heuristics
func benchGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"lu60":        testbeds.LU(60, 10),        // fig8 scale
		"forkjoin300": testbeds.ForkJoin(300, 10), // fig7 scale
	}
}

// BenchmarkDLS runs DLS on the fig7/fig8 testbeds on the paper platform
// under one-port, and on LU-30 on a seeded 32-processor platform under link
// contention, where a bound for unprobed pairs without the sender release
// once made DLS about 30 % slower.
func BenchmarkDLS(b *testing.B) {
	type dlsCase struct {
		g     *graph.Graph
		pl    *platform.Platform
		model sched.Model
	}
	cases := map[string]dlsCase{
		"lu30-p32-link-contention": {testbeds.LU(30, 10), seededPlatform(b, 1, 32), sched.LinkContention},
	}
	for name, g := range benchGraphs() {
		cases[name] = dlsCase{g, platform.Paper(), sched.OnePort}
	}
	for name, c := range cases {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DLS(c.g, c.pl, c.model); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDLSReference(b *testing.B) {
	pl := platform.Paper()
	for name, g := range benchGraphs() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dlsReference(g, pl, sched.OnePort); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// exhaustiveBenchBudget caps the branch-and-bound benchmarks: the work per
// op is exactly this many DFS expansions (the searches never complete), so
// the reference and the pruned search run the identical tree.
const exhaustiveBenchBudget = 4000

func BenchmarkExhaustive(b *testing.B) {
	pl := platform.Paper()
	g := testbeds.LU(5, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Exhaustive(g, pl, sched.OnePort, exhaustiveBenchBudget); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExhaustiveReference(b *testing.B) {
	pl := platform.Paper()
	g := testbeds.LU(5, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := exhaustiveReference(g, pl, sched.OnePort, exhaustiveBenchBudget); err != nil {
			b.Fatal(err)
		}
	}
}
