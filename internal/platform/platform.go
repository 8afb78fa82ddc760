// Package platform models the target computing resources of the paper:
// a set P of p processors with cycle-times t_i (inverse relative speeds) and
// a communication matrix link(q,r) giving the time to move one data item
// from P_q to P_r. The main diagonal is zero (intra-processor transfers are
// free) and, unless a sparse topology is configured, all off-diagonal
// entries are finite.
//
// A Platform is immutable after construction; all scheduling code shares a
// single instance.
package platform

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Platform describes the processors and interconnect.
type Platform struct {
	cycle  []float64   // cycle-time t_i per processor
	link   [][]float64 // link(q,r); 0 on the diagonal; +Inf if no direct wire
	sparse bool        // true if any off-diagonal entry is +Inf

	minOut []float64 // minOut[q]: the cheapest link out of q (see MinOut)

	// routes holds the routing tables, filled by the first Routes call; a
	// pointer, so copies of the Platform share the one fill
	routes *routeCache
}

// routeCache is a platform's routing tables and their error, computed once.
type routeCache struct {
	once sync.Once
	rt   *Routes
	err  error
}

// New builds a platform from explicit cycle-times and a full link matrix.
// It validates shapes and entries: cycle-times must be positive, the
// diagonal must be zero, and off-diagonal entries must be positive or +Inf
// (missing wire).
func New(cycleTimes []float64, link [][]float64) (*Platform, error) {
	p := len(cycleTimes)
	if p == 0 {
		return nil, fmt.Errorf("platform: no processors")
	}
	for i, t := range cycleTimes {
		if t <= 0 || math.IsNaN(t) || math.IsInf(t, 0) {
			return nil, fmt.Errorf("platform: cycle-time t_%d = %g must be positive and finite", i, t)
		}
	}
	if len(link) != p {
		return nil, fmt.Errorf("platform: link matrix has %d rows, want %d", len(link), p)
	}
	sparse := false
	for q := range link {
		if len(link[q]) != p {
			return nil, fmt.Errorf("platform: link row %d has %d entries, want %d", q, len(link[q]), p)
		}
		for r, c := range link[q] {
			switch {
			case q == r:
				if c != 0 {
					return nil, fmt.Errorf("platform: link(%d,%d) = %g, diagonal must be 0", q, r, c)
				}
			case math.IsInf(c, 1):
				sparse = true
			case c <= 0 || math.IsNaN(c):
				return nil, fmt.Errorf("platform: link(%d,%d) = %g must be positive or +Inf", q, r, c)
			}
		}
	}
	pl := &Platform{
		cycle:  append([]float64(nil), cycleTimes...),
		link:   make([][]float64, p),
		sparse: sparse,
		minOut: make([]float64, p),
		routes: &routeCache{},
	}
	for q := range link {
		pl.link[q] = append([]float64(nil), link[q]...)
		if p > 1 {
			pl.minOut[q] = math.Inf(1)
		}
		for r, c := range link[q] {
			if r != q && c < pl.minOut[q] {
				pl.minOut[q] = c
			}
		}
	}
	return pl, nil
}

// Uniform builds a fully-connected platform with the given cycle-times and a
// single link cost for every processor pair. This is the configuration of
// all the paper's experiments (link(q,r) = 1 for q != r).
func Uniform(cycleTimes []float64, linkCost float64) (*Platform, error) {
	p := len(cycleTimes)
	link := make([][]float64, p)
	for q := range link {
		link[q] = make([]float64, p)
		for r := range link[q] {
			if q != r {
				link[q][r] = linkCost
			}
		}
	}
	return New(cycleTimes, link)
}

// Homogeneous builds p identical unit-speed processors with unit link cost,
// the setting of the complexity proofs.
func Homogeneous(p int) (*Platform, error) {
	cycles := make([]float64, p)
	for i := range cycles {
		cycles[i] = 1
	}
	return Uniform(cycles, 1)
}

// Paper returns the 10-processor platform of the paper's evaluation:
// five processors with cycle-time 6, three with cycle-time 10, and two with
// cycle-time 15, fully connected with unit links.
func Paper() *Platform {
	pl, err := Uniform([]float64{6, 6, 6, 6, 6, 10, 10, 10, 15, 15}, 1)
	if err != nil {
		panic(err) // constants above are valid by construction
	}
	return pl
}

// NumProcs returns p, the number of processors.
func (pl *Platform) NumProcs() int { return len(pl.cycle) }

// CycleTime returns t_i.
func (pl *Platform) CycleTime(i int) float64 { return pl.cycle[i] }

// CycleTimes returns a copy of all cycle-times.
func (pl *Platform) CycleTimes() []float64 { return append([]float64(nil), pl.cycle...) }

// Link returns link(q,r): the per-data-item transfer time, 0 when q == r and
// +Inf when there is no direct wire.
func (pl *Platform) Link(q, r int) float64 { return pl.link[q][r] }

// LinkRow returns row q of the link matrix: LinkRow(q)[r] = link(q,r). It is
// the platform's own storage, read-only, so a loop over the destinations of
// one source reads a row instead of calling Link per pair.
func (pl *Platform) LinkRow(q int) []float64 { return pl.link[q] }

// Sparse reports whether some processor pair lacks a direct wire, in which
// case communications must be routed (see Routes).
func (pl *Platform) Sparse() bool { return pl.sparse }

// MinOut returns the cheapest link out of q: the minimum of link(q,r) over
// r != q, and 0 on a one-processor platform, where nothing leaves. Every
// route out of q starts with a wire at least this costly, on dense and
// sparse platforms alike.
func (pl *Platform) MinOut(q int) float64 { return pl.minOut[q] }

// Routes returns the platform's static routing tables (see routing.go), or
// an error when some processor pair is disconnected. The first call runs
// Floyd–Warshall, O(p³); later calls, from any goroutine, return the same
// tables. New does not compute them, so building a platform stays linear in
// its link matrix.
func (pl *Platform) Routes() (*Routes, error) {
	c := pl.routes
	c.once.Do(func() { c.rt, c.err = pl.computeRoutes() })
	return c.rt, c.err
}

// ExecTime returns the time to execute a task of weight w on processor i:
// w * t_i.
func (pl *Platform) ExecTime(w float64, i int) float64 { return w * pl.cycle[i] }

// CommTime returns the time to move data items over the direct wire from q
// to r: data * link(q,r). It is zero when q == r and +Inf when the wire is
// missing.
func (pl *Platform) CommTime(data float64, q, r int) float64 {
	if q == r {
		return 0
	}
	return data * pl.link[q][r]
}

// FastestProc returns the index of a processor with minimum cycle-time
// (lowest index on ties) — the reference processor for sequential times.
func (pl *Platform) FastestProc() int {
	best := 0
	for i, t := range pl.cycle {
		if t < pl.cycle[best] {
			best = i
		}
	}
	return best
}

// SequentialTime returns the time to run total weight w on a fastest
// processor: w * min_i t_i. Figures 7-12 normalise by this quantity.
func (pl *Platform) SequentialTime(w float64) float64 {
	return w * pl.cycle[pl.FastestProc()]
}

// InvSpeedSum returns Σ 1/t_i, the aggregate speed of the platform.
func (pl *Platform) InvSpeedSum() float64 {
	var s float64
	for _, t := range pl.cycle {
		s += 1 / t
	}
	return s
}

// AvgExecFactor returns the harmonic mean of the cycle-times,
// p / Σ(1/t_i): the paper's scaling factor for task weights when computing
// bottom levels on a heterogeneous platform (§4.1).
func (pl *Platform) AvgExecFactor() float64 {
	return float64(len(pl.cycle)) / pl.InvSpeedSum()
}

// AvgLinkFactor returns the harmonic mean of the finite off-diagonal link
// entries — the paper's scaling factor for communication volumes in bottom
// levels ("replace link(q,r) by the inverse of the harmonic mean" of the
// bandwidths). For a single processor it returns 0 (no communication ever).
func (pl *Platform) AvgLinkFactor() float64 {
	var invSum float64
	var count int
	for q := range pl.link {
		for r, c := range pl.link[q] {
			if q == r || math.IsInf(c, 1) {
				continue
			}
			invSum += 1 / c
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return float64(count) / invSum
}

// MaxSpeedup returns the paper's §5.2 upper bound on achievable speedup for
// a large pool of equal-size tasks: with B tasks distributed perfectly
// (B = lcm-based perfect-balance count), the parallel time per round is
// B / Σ(1/t_i) and the sequential time is B * min t_i, so the bound is
// min_i t_i * Σ_i 1/t_i. For the paper platform this is 7.6.
func (pl *Platform) MaxSpeedup() float64 {
	return pl.cycle[pl.FastestProc()] * pl.InvSpeedSum()
}

// PerfectBalanceCount returns the smallest number of equal-size tasks that
// can be distributed with perfectly equal finish times:
// lcm(t_1..t_p) * Σ 1/t_i, defined when the cycle-times are integers.
// For the paper platform this is 38 (the default ILHA chunk size B).
// It returns an error when a cycle-time is not a positive integer.
func (pl *Platform) PerfectBalanceCount() (int, error) {
	l := 1
	for _, t := range pl.cycle {
		it := int(t)
		if float64(it) != t || it <= 0 {
			return 0, fmt.Errorf("platform: PerfectBalanceCount needs integer cycle-times, got %g", t)
		}
		l = lcm(l, it)
	}
	sum := 0
	for _, t := range pl.cycle {
		sum += l / int(t)
	}
	return sum, nil
}

// ProcsBySpeed returns processor indices sorted fastest first (stable on
// ties, so equal-speed processors keep their index order).
func (pl *Platform) ProcsBySpeed() []int {
	idx := make([]int, len(pl.cycle))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return pl.cycle[idx[a]] < pl.cycle[idx[b]] })
	return idx
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }
