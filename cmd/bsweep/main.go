// Command bsweep sweeps ILHA's chunk-size parameter B on one testbed and
// prints the speedup for every value, reproducing the §5.3 observation that
// the best B is testbed-dependent (the paper reports 4 for LU, 38 for
// LAPLACE/STENCIL/FORK-JOIN and 20 for DOOLITTLE/LDMt) and bounded by the
// perfect-balance count M = lcm(t_i)·Σ1/t_i (38 on the paper platform).
//
//	bsweep -testbed lu -size 100
//	bsweep -testbed stencil -size 60 -bs 2,10,20,38 -scan 1
package main

import (
	"flag"
	"fmt"
	"os"

	"oneport/internal/cli"
	"oneport/internal/exp"
	"oneport/internal/heuristics"
	"oneport/internal/platform"
	"oneport/internal/sched"
	"oneport/internal/testbeds"
)

func main() {
	var (
		testbed   = flag.String("testbed", "lu", "task graph family")
		size      = flag.Int("size", 60, "problem size")
		bsSpec    = flag.String("bs", "", "comma list of B values (default: 1..perfect-balance count)")
		scanDepth = flag.Int("scan", 0, "ILHA Step-1 scan depth")
		modelName = flag.String("model", "oneport", "communication model")
	)
	flag.Parse()

	if err := run(*testbed, *size, *bsSpec, *scanDepth, *modelName); err != nil {
		fmt.Fprintln(os.Stderr, "bsweep:", err)
		os.Exit(1)
	}
}

func run(testbed string, size int, bsSpec string, scanDepth int, modelName string) error {
	pl := platform.Paper()
	model, err := cli.ParseModel(modelName)
	if err != nil {
		return err
	}
	var bs []int
	if bsSpec == "" {
		bs, err = exp.DefaultBs(pl)
	} else {
		bs, err = cli.ParseInts(bsSpec)
	}
	if err != nil {
		return err
	}

	g, err := testbeds.ByName(testbed, size, exp.CommRatio)
	if err != nil {
		return err
	}
	seq := pl.SequentialTime(g.TotalWeight())
	heft, err := heuristics.HEFT(g, pl, model)
	if err != nil {
		return err
	}
	if err := sched.Validate(g, pl, heft, model); err != nil {
		return err
	}
	fmt.Printf("%s size %d (%d tasks), %s model, scan depth %d\n",
		testbed, size, g.NumNodes(), model, scanDepth)
	fmt.Printf("HEFT reference speedup: %.4f\n", seq/heft.Makespan())
	fmt.Printf("%6s %12s %12s\n", "B", "speedup", "comms")

	var rows []exp.BPoint
	for _, b := range bs {
		p, err := exp.RunBPoint(g, pl, model, b, scanDepth, nil)
		if err != nil {
			return err
		}
		rows = append(rows, p)
	}
	best := rows[0]
	for _, r := range rows {
		fmt.Printf("%6d %12.4f %12d\n", r.B, r.Speedup, r.Comms)
		if r.Speedup > best.Speedup {
			best = r
		}
	}
	fmt.Printf("best B = %d (speedup %.4f)\n", best.B, best.Speedup)
	return nil
}
