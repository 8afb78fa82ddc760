package platform

import (
	"math"
	"slices"
	"testing"
)

func TestNewValidation(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name    string
		cycles  []float64
		link    [][]float64
		wantErr bool
	}{
		{"valid 2 procs", []float64{1, 2}, [][]float64{{0, 1}, {1, 0}}, false},
		{"no procs", nil, nil, true},
		{"zero cycle", []float64{0, 1}, [][]float64{{0, 1}, {1, 0}}, true},
		{"negative cycle", []float64{-1, 1}, [][]float64{{0, 1}, {1, 0}}, true},
		{"inf cycle", []float64{inf, 1}, [][]float64{{0, 1}, {1, 0}}, true},
		{"bad row count", []float64{1, 2}, [][]float64{{0, 1}}, true},
		{"bad col count", []float64{1, 2}, [][]float64{{0, 1}, {1}}, true},
		{"nonzero diagonal", []float64{1, 2}, [][]float64{{1, 1}, {1, 0}}, true},
		{"negative link", []float64{1, 2}, [][]float64{{0, -1}, {1, 0}}, true},
		{"zero off-diagonal link", []float64{1, 2}, [][]float64{{0, 0}, {1, 0}}, true},
		{"inf link ok (sparse)", []float64{1, 2}, [][]float64{{0, inf}, {1, 0}}, false},
	}
	for _, c := range cases {
		_, err := New(c.cycles, c.link)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v, wantErr = %v", c.name, err, c.wantErr)
		}
	}
}

func TestNewCopiesInputs(t *testing.T) {
	cycles := []float64{1, 2}
	link := [][]float64{{0, 3}, {3, 0}}
	pl, err := New(cycles, link)
	if err != nil {
		t.Fatal(err)
	}
	cycles[0] = 99
	link[0][1] = 99
	if pl.CycleTime(0) != 1 || pl.Link(0, 1) != 3 {
		t.Fatal("platform aliases caller slices")
	}
}

func TestUniformAndAccessors(t *testing.T) {
	pl, err := Uniform([]float64{2, 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if pl.NumProcs() != 2 {
		t.Fatalf("NumProcs = %d", pl.NumProcs())
	}
	if pl.Link(0, 1) != 5 || pl.Link(1, 0) != 5 || pl.Link(0, 0) != 0 {
		t.Fatal("Uniform link matrix wrong")
	}
	if pl.ExecTime(3, 1) != 12 {
		t.Errorf("ExecTime = %g, want 12", pl.ExecTime(3, 1))
	}
	if pl.CommTime(3, 0, 1) != 15 {
		t.Errorf("CommTime = %g, want 15", pl.CommTime(3, 0, 1))
	}
	if pl.CommTime(3, 1, 1) != 0 {
		t.Errorf("intra-proc CommTime = %g, want 0", pl.CommTime(3, 1, 1))
	}
	if pl.Sparse() {
		t.Error("Uniform platform reported sparse")
	}
}

func TestHomogeneous(t *testing.T) {
	pl, err := Homogeneous(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if pl.CycleTime(i) != 1 {
			t.Fatalf("cycle %d = %g", i, pl.CycleTime(i))
		}
	}
	if pl.AvgExecFactor() != 1 || pl.AvgLinkFactor() != 1 {
		t.Errorf("factors = %g,%g want 1,1", pl.AvgExecFactor(), pl.AvgLinkFactor())
	}
}

func TestPaperPlatformNumbers(t *testing.T) {
	pl := Paper()
	if pl.NumProcs() != 10 {
		t.Fatalf("NumProcs = %d, want 10", pl.NumProcs())
	}
	// Σ 1/t = 5/6 + 3/10 + 2/15 = 0.8333... + 0.3 + 0.1333... = 38/30
	wantInv := 38.0 / 30.0
	if got := pl.InvSpeedSum(); math.Abs(got-wantInv) > 1e-12 {
		t.Errorf("InvSpeedSum = %g, want %g", got, wantInv)
	}
	// paper §5.2: speedup bound 228/30 = 7.6
	if got := pl.MaxSpeedup(); math.Abs(got-7.6) > 1e-12 {
		t.Errorf("MaxSpeedup = %g, want 7.6", got)
	}
	// paper §5.2: smallest perfectly balanced chunk B = 38
	b, err := pl.PerfectBalanceCount()
	if err != nil {
		t.Fatal(err)
	}
	if b != 38 {
		t.Errorf("PerfectBalanceCount = %d, want 38", b)
	}
	if pl.FastestProc() != 0 {
		t.Errorf("FastestProc = %d, want 0", pl.FastestProc())
	}
	if got := pl.SequentialTime(38); got != 228 {
		t.Errorf("SequentialTime(38) = %g, want 228", got)
	}
	// harmonic mean of cycle-times = 10/(38/30) = 300/38
	if got := pl.AvgExecFactor(); math.Abs(got-300.0/38.0) > 1e-12 {
		t.Errorf("AvgExecFactor = %g, want %g", got, 300.0/38.0)
	}
	// all links are 1 so the harmonic mean is 1
	if got := pl.AvgLinkFactor(); got != 1 {
		t.Errorf("AvgLinkFactor = %g, want 1", got)
	}
}

func TestPerfectBalanceCountNonInteger(t *testing.T) {
	pl, err := Uniform([]float64{1.5, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.PerfectBalanceCount(); err == nil {
		t.Fatal("expected error for non-integer cycle-times")
	}
}

func TestProcsBySpeedStable(t *testing.T) {
	pl, err := Uniform([]float64{10, 6, 15, 6}, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := pl.ProcsBySpeed()
	want := []int{1, 3, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ProcsBySpeed = %v, want %v", got, want)
		}
	}
}

func TestAvgLinkFactorHeterogeneousLinks(t *testing.T) {
	// links: (0,1)=1 (1,0)=1 (0,2)=2 (2,0)=2 (1,2)=4 (2,1)=4
	link := [][]float64{
		{0, 1, 2},
		{1, 0, 4},
		{2, 4, 0},
	}
	pl, err := New([]float64{1, 1, 1}, link)
	if err != nil {
		t.Fatal(err)
	}
	// harmonic mean of {1,1,2,2,4,4} = 6 / (1+1+0.5+0.5+0.25+0.25) = 6/3.5
	want := 6.0 / 3.5
	if got := pl.AvgLinkFactor(); math.Abs(got-want) > 1e-12 {
		t.Errorf("AvgLinkFactor = %g, want %g", got, want)
	}
}

func TestSingleProcessorFactors(t *testing.T) {
	pl, err := Uniform([]float64{3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pl.AvgLinkFactor() != 0 {
		t.Errorf("AvgLinkFactor = %g, want 0 for single proc", pl.AvgLinkFactor())
	}
	if pl.AvgExecFactor() != 3 {
		t.Errorf("AvgExecFactor = %g, want 3", pl.AvgExecFactor())
	}
}

func TestRoutesFullyConnected(t *testing.T) {
	pl := Paper()
	rt, err := pl.Routes()
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < pl.NumProcs(); q++ {
		for r := 0; r < pl.NumProcs(); r++ {
			path := rt.Path(q, r)
			if q == r {
				if len(path) != 1 {
					t.Fatalf("Path(%d,%d) = %v", q, r, path)
				}
				continue
			}
			if len(path) != 2 || rt.Hops(q, r) != 1 {
				t.Fatalf("Path(%d,%d) = %v, want direct", q, r, path)
			}
			if rt.Dist(q, r) != 1 {
				t.Fatalf("Dist(%d,%d) = %g, want 1", q, r, rt.Dist(q, r))
			}
		}
	}
}

func TestRoutesLineTopology(t *testing.T) {
	inf := math.Inf(1)
	// 0 -- 1 -- 2 line, each wire cost 2
	link := [][]float64{
		{0, 2, inf},
		{2, 0, 2},
		{inf, 2, 0},
	}
	pl, err := New([]float64{1, 1, 1}, link)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Sparse() {
		t.Fatal("line topology should be sparse")
	}
	if pl.routes.rt != nil {
		t.Fatal("New computed the routing tables; Routes should fill them on first use")
	}
	rt, err := pl.Routes()
	if err != nil {
		t.Fatal(err)
	}
	path := rt.Path(0, 2)
	want := []int{0, 1, 2}
	if len(path) != 3 || path[0] != want[0] || path[1] != want[1] || path[2] != want[2] {
		t.Fatalf("Path(0,2) = %v, want %v", path, want)
	}
	if rt.Dist(0, 2) != 4 {
		t.Errorf("Dist(0,2) = %g, want 4", rt.Dist(0, 2))
	}
	if rt.Hops(0, 2) != 2 {
		t.Errorf("Hops(0,2) = %d, want 2", rt.Hops(0, 2))
	}
	if again, _ := pl.Routes(); again != rt {
		t.Fatal("Routes() recomputed the tables")
	}
	// the scheduler walks the tables by Next
	for q := 0; q < 3; q++ {
		for r := 0; r < 3; r++ {
			walk := []int{q}
			for a := q; a != r; {
				a = rt.Next(a, r)
				walk = append(walk, a)
			}
			if path := rt.Path(q, r); !slices.Equal(walk, path) {
				t.Errorf("%d->%d: Next walks %v, Path is %v", q, r, walk, path)
			}
		}
	}
}

func TestRoutesDisconnected(t *testing.T) {
	inf := math.Inf(1)
	link := [][]float64{
		{0, inf},
		{inf, 0},
	}
	pl, err := New([]float64{1, 1}, link)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Routes(); err == nil {
		t.Fatal("expected error for disconnected platform")
	}
	if _, err := pl.Routes(); err == nil {
		t.Fatal("expected a second Routes() to report the disconnected platform too")
	}
}

func TestRoutesPreferCheaperIndirectPath(t *testing.T) {
	// direct wire 0->2 costs 10, but 0->1->2 costs 2: routing should take it.
	link := [][]float64{
		{0, 1, 10},
		{1, 0, 1},
		{10, 1, 0},
	}
	pl, err := New([]float64{1, 1, 1}, link)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := pl.Routes()
	if err != nil {
		t.Fatal(err)
	}
	if rt.Dist(0, 2) != 2 {
		t.Errorf("Dist(0,2) = %g, want 2", rt.Dist(0, 2))
	}
	if rt.Hops(0, 2) != 2 {
		t.Errorf("Hops(0,2) = %d, want 2 (via proc 1)", rt.Hops(0, 2))
	}
}

func TestMinOut(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name  string
		cycle []float64
		link  [][]float64
		want  []float64
	}{
		{"asymmetric", []float64{1, 1, 1}, [][]float64{{0, 3, 1}, {2, 0, 5}, {4, 4, 0}}, []float64{1, 2, 4}},
		{"line", []float64{1, 1, 1}, [][]float64{{0, 2, inf}, {2, 0, 0.5}, {inf, 0.5, 0}}, []float64{2, 0.5, 0.5}},
		{"one processor", []float64{3}, [][]float64{{0}}, []float64{0}},
	}
	for _, c := range cases {
		pl, err := New(c.cycle, c.link)
		if err != nil {
			t.Fatal(err)
		}
		for q, want := range c.want {
			if got := pl.MinOut(q); got != want {
				t.Errorf("%s: MinOut(%d) = %g, want %g", c.name, q, got, want)
			}
		}
	}
}

// TestLinkRow checks that row q of LinkRow agrees with Link(q, ·) on an
// asymmetric matrix.
func TestLinkRow(t *testing.T) {
	pl, err := New([]float64{1, 1, 1}, [][]float64{{0, 3, 1}, {2, 0, 5}, {4, 4, 0}})
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < pl.NumProcs(); q++ {
		row := pl.LinkRow(q)
		if len(row) != pl.NumProcs() {
			t.Fatalf("LinkRow(%d) has %d entries, want %d", q, len(row), pl.NumProcs())
		}
		for r, c := range row {
			if c != pl.Link(q, r) {
				t.Errorf("LinkRow(%d)[%d] = %g, want Link = %g", q, r, c, pl.Link(q, r))
			}
		}
	}
}
