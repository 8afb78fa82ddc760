// Package exp is the experiment harness: it regenerates every figure of the
// paper's evaluation (§5, Figures 7–12) — HEFT versus ILHA under the
// bi-directional one-port model on the six testbeds — and the §5.2 speedup
// bounds. Each figure is a series of (problem size, speedup) points where
// speedup is the sequential time on a fastest processor divided by the
// schedule makespan, exactly the paper's "ratio (execution time)/(sequential
// time)" axis.
package exp

import (
	"fmt"
	"strings"

	"oneport/internal/cli"
	"oneport/internal/graph"
	"oneport/internal/heuristics"
	"oneport/internal/platform"
	"oneport/internal/sched"
	"oneport/internal/testbeds"
)

// CommRatio is the communication-to-computation ratio of all the paper's
// experiments (§5.2, "workstations linked with a slow (Ethernet) network").
const CommRatio = 10.0

// Figure identifies one experiment of the evaluation section.
type Figure struct {
	ID      string // e.g. "fig7"
	Testbed string // testbeds.ByName key
	B       int    // experimentally best chunk size reported by the paper
	Title   string
}

// Figures lists the paper's six evaluation figures with the B values §5.3
// reports as best.
var Figures = []Figure{
	{ID: "fig7", Testbed: "forkjoin", B: 38, Title: "FORK-JOIN (Figure 7)"},
	{ID: "fig8", Testbed: "lu", B: 4, Title: "LU (Figure 8)"},
	{ID: "fig9", Testbed: "laplace", B: 38, Title: "LAPLACE (Figure 9)"},
	{ID: "fig10", Testbed: "ldmt", B: 20, Title: "LDMt (Figure 10)"},
	{ID: "fig11", Testbed: "doolittle", B: 20, Title: "DOOLITTLE (Figure 11)"},
	{ID: "fig12", Testbed: "stencil", B: 38, Title: "STENCIL (Figure 12)"},
}

// FigureByID returns the figure with the given id.
func FigureByID(id string) (Figure, error) {
	for _, f := range Figures {
		if f.ID == id {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("exp: unknown figure %q", id)
}

// PaperSizes returns the problem sizes of the x-axis in Figures 7-12.
func PaperSizes() []int { return []int{100, 150, 200, 250, 300, 350, 400, 450, 500} }

// QuickSizes returns a reduced size sweep for tests and default benchmarks;
// the curves' shapes (who wins, trends) are already stable at these sizes.
func QuickSizes() []int { return []int{20, 40, 60, 80} }

// ParseSizes resolves a sizes spec: "quick" (QuickSizes), "paper"
// (PaperSizes) or a comma list like "50,100".
func ParseSizes(spec string) ([]int, error) {
	switch spec {
	case "quick":
		return QuickSizes(), nil
	case "paper":
		return PaperSizes(), nil
	}
	return cli.ParseInts(spec)
}

// Point is one x-position of a figure: both heuristics at one problem size.
type Point struct {
	Size         int
	Tasks        int
	HEFTSpeedup  float64
	ILHASpeedup  float64
	HEFTMakespan float64
	ILHAMakespan float64
	HEFTComms    int
	ILHAComms    int
}

// GainPercent returns how much ILHA improves over HEFT in makespan, in
// percent (positive = ILHA better).
func (p Point) GainPercent() float64 {
	if p.HEFTMakespan == 0 {
		return 0
	}
	return 100 * (p.HEFTMakespan - p.ILHAMakespan) / p.HEFTMakespan
}

// Series is a complete figure: one point per problem size.
type Series struct {
	Figure Figure
	Model  sched.Model
	Points []Point
}

// Run regenerates one figure on the given platform and model for the given
// problem sizes, using the figure's B for ILHA. It is the in-process
// execution of the figure's job decomposition: one RunPointSpec per size,
// reassembled by AssembleSeries — sharded execution (internal/service/sweep)
// runs exactly the same jobs and merges to the same Series. As a
// consequence the series is always reported in ascending size order and
// duplicate sizes are rejected, whatever order the caller passed.
func Run(fig Figure, pl *platform.Platform, model sched.Model, sizes []int) (*Series, error) {
	points := make([]Point, 0, len(sizes))
	for _, ps := range fig.PointSpecs(sizes) {
		p, err := RunPointSpec(ps, pl, model)
		if err != nil {
			return nil, err
		}
		points = append(points, p)
	}
	return AssembleSeries(fig, model, points)
}

// RunPoint schedules one graph with both heuristics and returns the
// comparison.
func RunPoint(g *graph.Graph, pl *platform.Platform, model sched.Model, b int) (Point, error) {
	return RunPointTuned(g, pl, model, b, nil)
}

// RunPointTuned is RunPoint with a per-run heuristics.Tuning threaded into
// both scheduler runs, so a worker lane feeding many points through one
// Tuning (sweep workers, the service job feed) reuses its grown probe
// scratch instead of reallocating it per point. A Tuning never changes a
// schedule, so the Point is byte-identical to RunPoint's.
func RunPointTuned(g *graph.Graph, pl *platform.Platform, model sched.Model, b int, tune *heuristics.Tuning) (Point, error) {
	seq := pl.SequentialTime(g.TotalWeight())
	heftFn, err := heuristics.ByNameTuned("heft", heuristics.ILHAOptions{}, tune)
	if err != nil {
		return Point{}, err
	}
	heft, err := heftFn(g, pl, model)
	if err != nil {
		return Point{}, err
	}
	ilhaFn, err := heuristics.ByNameTuned("ilha", heuristics.ILHAOptions{B: b}, tune)
	if err != nil {
		return Point{}, err
	}
	ilha, err := ilhaFn(g, pl, model)
	if err != nil {
		return Point{}, err
	}
	if err := sched.Validate(g, pl, heft, model); err != nil {
		return Point{}, fmt.Errorf("HEFT schedule invalid: %w", err)
	}
	if err := sched.Validate(g, pl, ilha, model); err != nil {
		return Point{}, fmt.Errorf("ILHA schedule invalid: %w", err)
	}
	return Point{
		Tasks:        g.NumNodes(),
		HEFTSpeedup:  seq / heft.Makespan(),
		ILHASpeedup:  seq / ilha.Makespan(),
		HEFTMakespan: heft.Makespan(),
		ILHAMakespan: ilha.Makespan(),
		HEFTComms:    heft.CommCount(),
		ILHAComms:    ilha.CommCount(),
	}, nil
}

// Table renders the series as a fixed-width text table matching the figure's
// series: one row per size with both speedups, ILHA's gain and the message
// counts.
func (s *Series) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s model, c = %g, B = %d\n", s.Figure.Title, s.Model, CommRatio, s.Figure.B)
	fmt.Fprintf(&b, "%6s %8s %14s %14s %8s %12s %12s\n",
		"size", "tasks", "HEFT speedup", "ILHA speedup", "gain%", "HEFT comms", "ILHA comms")
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%6d %8d %14.3f %14.3f %8.2f %12d %12d\n",
			p.Size, p.Tasks, p.HEFTSpeedup, p.ILHASpeedup, p.GainPercent(), p.HEFTComms, p.ILHAComms)
	}
	return b.String()
}

// BSweep runs ILHA for every B in bs on one testbed instance and returns the
// speedups, reproducing the §5.3 observation that the best B depends on the
// testbed (4 for LU, 38 for LAPLACE/STENCIL/FORK-JOIN, 20 for
// DOOLITTLE/LDMt).
func BSweep(testbed string, n int, pl *platform.Platform, model sched.Model, bs []int) (map[int]float64, error) {
	g, err := testbeds.ByName(testbed, n, CommRatio)
	if err != nil {
		return nil, err
	}
	out := make(map[int]float64, len(bs))
	for _, b := range bs {
		p, err := RunBPoint(g, pl, model, b, 0, nil)
		if err != nil {
			return nil, err
		}
		out[b] = p.Speedup
	}
	return out, nil
}

// BPoint is one point of a B-sweep: the speedup and message count of ILHA
// at chunk size B.
type BPoint struct {
	B       int
	Speedup float64
	Comms   int
}

// RunBPoint schedules g with ILHA at chunk size b and Step-1 scan depth
// scan, validates the schedule and returns its B point; tune, when
// non-nil, lends the run its scratch (a Tuning never changes a schedule).
func RunBPoint(g *graph.Graph, pl *platform.Platform, model sched.Model, b, scan int, tune *heuristics.Tuning) (BPoint, error) {
	ilha, err := heuristics.ByNameTuned("ilha", heuristics.ILHAOptions{B: b, ScanDepth: scan}, tune)
	if err != nil {
		return BPoint{}, err
	}
	s, err := ilha(g, pl, model)
	if err != nil {
		return BPoint{}, err
	}
	if err := sched.Validate(g, pl, s, model); err != nil {
		return BPoint{}, fmt.Errorf("B=%d: %w", b, err)
	}
	return BPoint{B: b, Speedup: pl.SequentialTime(g.TotalWeight()) / s.Makespan(), Comms: s.CommCount()}, nil
}

// DefaultBs returns the default B-sweep: every chunk size from 1 to the
// platform's perfect-balance count (38 on the paper platform).
func DefaultBs(pl *platform.Platform) ([]int, error) {
	max, err := pl.PerfectBalanceCount()
	if err != nil {
		return nil, err
	}
	bs := make([]int, max)
	for i := range bs {
		bs[i] = i + 1
	}
	return bs, nil
}

// SpeedupBound returns the §5.2 upper bound on any speedup for the platform
// (7.6 on the paper platform): communications ignored, perfect balance.
func SpeedupBound(pl *platform.Platform) float64 { return pl.MaxSpeedup() }

// ForkJoinSpeedupCap returns the §5.3 analytic speedup cap for the
// FORK-JOIN testbed: s <= w·t/c + 1, where w is the task weight, t the
// fastest cycle-time and c the communication cost; 1.6 with the paper's
// parameters. Communications to and from remote children serialize through
// the fork and join nodes' processor, which caps the useful parallelism.
func ForkJoinSpeedupCap(w, t, c float64) float64 { return w*t/c + 1 }
