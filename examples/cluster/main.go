// Cluster schedules a workload on a *sparse* cluster topology: two switches
// of four workstations each, joined by a single backbone wire. Messages
// between the halves are routed through the gateway processors hop by hop,
// each hop obeying the one-port constraint (§4.3: "if there is no direct
// link ... we redo the previous step for all intermediate messages between
// adjacent processors").
//
//	go run ./examples/cluster
package main

import (
	"fmt"
	"log"
	"math"

	"oneport/internal/graph"
	"oneport/internal/heuristics"
	"oneport/internal/platform"
	"oneport/internal/sched"
	"oneport/internal/sim"
	"oneport/internal/testbeds"
)

// buildCluster returns an 8-processor platform: processors 0-3 are fully
// wired to each other (cost 1), processors 4-7 likewise, and only 3<->4 is
// wired across (cost 2, the backbone). Processors 0-3 are fast (cycle 1),
// 4-7 slower (cycle 2).
func buildCluster() (*platform.Platform, error) {
	const p = 8
	inf := math.Inf(1)
	link := make([][]float64, p)
	for q := range link {
		link[q] = make([]float64, p)
		for r := range link[q] {
			switch {
			case q == r:
				link[q][r] = 0
			case q < 4 && r < 4, q >= 4 && r >= 4:
				link[q][r] = 1
			case (q == 3 && r == 4) || (q == 4 && r == 3):
				link[q][r] = 2
			default:
				link[q][r] = inf
			}
		}
	}
	return platform.New([]float64{1, 1, 1, 1, 2, 2, 2, 2}, link)
}

func main() {
	pl, err := buildCluster()
	if err != nil {
		log.Fatal(err)
	}
	rt, err := pl.Routes()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("cluster: 2x4 workstations, single backbone wire 3<->4")
	fmt.Printf("route 0 -> 7: %v (cost %g per data item)\n\n", rt.Path(0, 7), rt.Dist(0, 7))

	g := testbeds.RandomLayered(11, 6, 8, 3, 2)
	fmt.Printf("workload: random layered DAG, %d tasks, %d edges\n\n", g.NumNodes(), g.NumEdges())

	for _, name := range []string{"heft", "ilha"} {
		f, err := heuristics.ByName(name, heuristics.ILHAOptions{B: 8})
		if err != nil {
			log.Fatal(err)
		}
		s, err := f(g, pl, sched.OnePort)
		if err != nil {
			log.Fatal(err)
		}
		if err := sched.Validate(g, pl, s, sched.OnePort); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		multihop := 0
		for i := range s.Comms {
			if len(s.Comms[i].Hops) > 1 {
				multihop++
			}
		}
		fmt.Printf("%-5s makespan %-8g comms %-4d (of which routed multi-hop: %d)\n",
			name, s.Makespan(), s.CommCount(), multihop)
	}

	// A schedule where routing is forced: a chain crossing the backbone.
	fmt.Println("\nforced cross-backbone pipeline:")
	cg := graph.New(3)
	a := cg.AddNode(2, "ingest")
	b := cg.AddNode(8, "heavy")
	c := cg.AddNode(2, "report")
	cg.MustEdge(a, b, 4)
	cg.MustEdge(b, c, 4)
	s, err := heuristics.HEFT(cg, pl, sched.OnePort)
	if err != nil {
		log.Fatal(err)
	}
	if err := sched.Validate(cg, pl, s, sched.OnePort); err != nil {
		log.Fatal(err)
	}
	fmt.Print(sim.Trace(cg, s))
}
