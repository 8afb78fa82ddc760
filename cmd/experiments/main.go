// Command experiments regenerates the paper's evaluation (Figures 7–12):
// HEFT versus ILHA under the bi-directional one-port model on the six
// testbeds, with the paper's platform (5× cycle 6, 3× cycle 10, 2× cycle
// 15), c = 10 and the per-figure best B.
//
//	experiments                 # quick sizes, all figures
//	experiments -sizes paper    # the paper's 100..500 sweep (minutes)
//	experiments -fig fig9       # a single figure
//	experiments -model macro    # same experiments under macro-dataflow
//	experiments -spectrum lu    # all five communication models side by side
//	experiments -compare 10     # every heuristic on a mixed workload suite
//	experiments -csv            # figure output as CSV for plotting
//
// With -server the figure runs are driven through a running schedserve's
// POST /batch endpoint instead of in-process calls — same tables, same CSV,
// byte for byte — so one warm server (result cache, pooled scratch) can
// serve many figure regenerations:
//
//	experiments -server http://localhost:8642 -fig fig8
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"oneport/internal/cli"
	"oneport/internal/exp"
	"oneport/internal/heuristics"
	"oneport/internal/platform"
	"oneport/internal/service"
)

func main() {
	var (
		figID     = flag.String("fig", "all", "figure to regenerate (fig7..fig12 or all)")
		sizesSpec = flag.String("sizes", "quick", `problem sizes: "quick", "paper", or a comma list like "50,100"`)
		modelName = flag.String("model", "oneport", "communication model (oneport, macro, uniport, nooverlap, linkcontention)")
		spectrum  = flag.String("spectrum", "", "run the 5-model spectrum on this testbed instead of figures")
		size      = flag.Int("size", 30, "problem size for -spectrum")
		b         = flag.Int("B", 38, "ILHA chunk size for -spectrum and -compare")
		compare   = flag.Int("compare", 0, "compare every heuristic on a mixed suite of this size")
		csv       = flag.Bool("csv", false, "emit figure series as CSV instead of tables")
		csweep    = flag.String("csweep", "", "sweep the communication ratio on this testbed")
		hetsweep  = flag.String("het", "", "sweep platform heterogeneity on this testbed")
		server    = flag.String("server", "", "drive figure runs through this schedserve base URL (POST /batch) instead of in-process")
	)
	flag.Parse()

	// -server only drives the figure tables (the /batch path); the other
	// modes run in-process. Reject the combination instead of silently
	// ignoring the flag.
	if *server != "" && (*csweep != "" || *hetsweep != "" || *compare > 0 || *spectrum != "") {
		fmt.Fprintln(os.Stderr, "experiments: -server applies only to figure runs (not -csweep/-het/-compare/-spectrum)")
		os.Exit(1)
	}

	if *csweep != "" {
		pts, err := exp.CSweep(*csweep, *size, *b, platform.Paper(), []float64{1, 2, 5, 10, 20})
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Print(exp.CSweepTable(*csweep, *size, pts))
		return
	}
	if *hetsweep != "" {
		pts, err := exp.HeterogeneitySweep(*hetsweep, *size, *b)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Print(exp.HetTable(*hetsweep, *size, pts))
		return
	}

	if *compare > 0 {
		model, err := cli.ParseModel(*modelName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		wls, err := exp.StandardWorkloads(*compare)
		if err == nil {
			var cmp *exp.Comparison
			cmp, err = exp.Compare(wls, platform.Paper(), model, heuristics.ILHAOptions{B: *b})
			if err == nil {
				fmt.Print(cmp.Table())
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}

	if *spectrum != "" {
		sp, err := exp.RunSpectrum(*spectrum, *size, *b, platform.Paper())
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Print(sp.Table())
		return
	}

	if err := run(*figID, *sizesSpec, *modelName, *csv, *server); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(figID, sizesSpec, modelName string, csv bool, server string) error {
	model, err := cli.ParseModel(modelName)
	if err != nil {
		return err
	}
	sizes, err := exp.ParseSizes(sizesSpec)
	if err != nil {
		return err
	}
	figs := exp.Figures
	if figID != "all" {
		f, err := exp.FigureByID(figID)
		if err != nil {
			return err
		}
		figs = []exp.Figure{f}
	}
	pl := platform.Paper()
	if !csv {
		fmt.Printf("platform: 10 processors (5x t=6, 3x t=10, 2x t=15), speedup bound %.4g\n",
			exp.SpeedupBound(pl))
		fmt.Printf("FORK-JOIN analytic speedup cap: %.4g\n\n", exp.ForkJoinSpeedupCap(1, 6, exp.CommRatio))
	}
	var client *service.Client
	if server != "" {
		client = &service.Client{BaseURL: server}
	}
	for _, fig := range figs {
		var s *exp.Series
		if client != nil {
			s, err = exp.RunViaService(context.Background(), client, fig, pl, modelName, sizes)
		} else {
			s, err = exp.Run(fig, pl, model, sizes)
		}
		if err != nil {
			return err
		}
		if csv {
			fmt.Printf("# %s\n%s\n", fig.ID, s.CSV())
		} else {
			fmt.Println(s.Table())
		}
	}
	return nil
}
