package platform

import (
	"fmt"
	"math"
)

// Static routing for sparse topologies (§4.3: "if there is no direct link
// from P2 to P1, we redo the previous step for all intermediate messages
// between adjacent processors"). Routes are shortest paths under the link
// cost metric, computed once with Floyd–Warshall; every processor's routing
// table is therefore fully static, as in the Sinnen–Sousa model the paper
// discusses.

// Routes holds the all-pairs static routing tables of a platform.
type Routes struct {
	next [][]int     // next[q][r]: first hop on the path q->r
	link [][]float64 // the platform's link matrix, for Dist
}

// computeRoutes runs Floyd–Warshall over the link matrix and returns the
// routing tables. An error is returned if some processor pair is not
// connected even transitively. Platform.Routes calls it once per platform.
func (pl *Platform) computeRoutes() (*Routes, error) {
	p := pl.NumProcs()
	dist := make([][]float64, p)
	next := make([][]int, p)
	for q := 0; q < p; q++ {
		dist[q] = make([]float64, p)
		next[q] = make([]int, p)
		for r := 0; r < p; r++ {
			dist[q][r] = pl.link[q][r]
			switch {
			case q == r:
				next[q][r] = q
			case !math.IsInf(pl.link[q][r], 1):
				next[q][r] = r
			default:
				next[q][r] = -1
			}
		}
	}
	for k := 0; k < p; k++ {
		for q := 0; q < p; q++ {
			for r := 0; r < p; r++ {
				if dist[q][k]+dist[k][r] < dist[q][r] {
					dist[q][r] = dist[q][k] + dist[k][r]
					next[q][r] = next[q][k]
				}
			}
		}
	}
	for q := 0; q < p; q++ {
		for r := 0; r < p; r++ {
			if next[q][r] == -1 {
				return nil, fmt.Errorf("platform: processors %d and %d are disconnected", q, r)
			}
		}
	}
	return &Routes{next: next, link: pl.link}, nil
}

// Next returns the processor after q on the routed path q->r (r when the
// route is the direct wire, q when q == r). Walking Next from q until r
// visits the path without building it, which is how the scheduler's probes
// read it.
func (rt *Routes) Next(q, r int) int { return rt.next[q][r] }

// Path returns the processor sequence from q to r, inclusive of both ends.
// For q == r it returns [q].
func (rt *Routes) Path(q, r int) []int {
	path := []int{q}
	for q != r {
		q = rt.next[q][r]
		path = append(path, q)
	}
	return path
}

// Dist returns the total per-data-item cost along the routed path q->r: the
// sum of its wires' links, in path order.
func (rt *Routes) Dist(q, r int) float64 {
	d := 0.0
	for q != r {
		a := rt.next[q][r]
		d += rt.link[q][a]
		q = a
	}
	return d
}

// Hops returns the number of wires on the routed path q->r (0 when q == r).
func (rt *Routes) Hops(q, r int) int { return len(rt.Path(q, r)) - 1 }
