// Package graph implements the weighted directed acyclic task graphs used
// throughout the library: the macro-dataflow application model
// G = (V, E, w, data) of the paper, where w(v) is the computation cost of a
// task in cycles and data(u,v) is the number of data items carried by an
// edge.
//
// A Graph is built incrementally with AddNode and AddEdge; the structure is
// append-only (nodes and edges are never removed), while weights and edge
// data may be updated in place with SetWeight and SetEdgeData. Node
// identifiers are dense integers in [0, NumNodes). All scheduling packages
// treat those identifiers as indices into per-task arrays.
package graph

import (
	"errors"
	"fmt"
	"math"
)

// Adj is one adjacency entry: a neighbouring node and the data volume of the
// connecting edge.
type Adj struct {
	Node int     // neighbour node id
	Data float64 // data volume data(u,v) carried by the edge
}

// Edge is a fully-specified edge, used when enumerating all edges at once.
type Edge struct {
	From, To int
	Data     float64
}

// Graph is a vertex-weighted, edge-weighted directed graph. It is intended to
// be acyclic; Validate or TopoOrder report an error if a cycle is present.
// The zero value is an empty graph ready for use.
type Graph struct {
	weights []float64
	labels  []string
	succ    [][]Adj
	pred    [][]Adj
	edges   int
}

// New returns an empty graph with capacity hints for n nodes.
func New(n int) *Graph {
	return &Graph{
		weights: make([]float64, 0, n),
		labels:  make([]string, 0, n),
		succ:    make([][]Adj, 0, n),
		pred:    make([][]Adj, 0, n),
	}
}

// AddNode appends a node with the given computation weight and
// human-readable label, returning its id. Weights must be non-negative;
// a negative weight panics, since it indicates a programming error in a
// generator rather than bad external input.
func (g *Graph) AddNode(weight float64, label string) int {
	if weight < 0 {
		panic(fmt.Sprintf("graph: negative node weight %g", weight))
	}
	id := len(g.weights)
	g.weights = append(g.weights, weight)
	g.labels = append(g.labels, label)
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	return id
}

// AddEdge adds a precedence edge from u to v carrying data items.
// It returns an error on out-of-range endpoints, self loops, negative data,
// or a duplicate edge.
func (g *Graph) AddEdge(u, v int, data float64) error {
	n := len(g.weights)
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
	}
	if u == v {
		return fmt.Errorf("graph: self loop on node %d", u)
	}
	if data < 0 {
		return fmt.Errorf("graph: negative data %g on edge (%d,%d)", data, u, v)
	}
	for _, a := range g.succ[u] {
		if a.Node == v {
			return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
		}
	}
	g.succ[u] = append(g.succ[u], Adj{Node: v, Data: data})
	g.pred[v] = append(g.pred[v], Adj{Node: u, Data: data})
	g.edges++
	return nil
}

// MustEdge is AddEdge that panics on error; generators use it since they
// construct edges from loop indices that are correct by construction.
func (g *Graph) MustEdge(u, v int, data float64) {
	if err := g.AddEdge(u, v, data); err != nil {
		panic(err)
	}
}

// SetWeight updates w(v) in place. It rejects out-of-range nodes and
// non-finite or negative weights with an error (never a panic): weight
// updates arrive from untrusted session deltas, unlike AddNode's
// generator-built weights.
func (g *Graph) SetWeight(v int, weight float64) error {
	if v < 0 || v >= len(g.weights) {
		return fmt.Errorf("graph: set_weight node %d out of range [0,%d)", v, len(g.weights))
	}
	if weight < 0 || math.IsNaN(weight) || math.IsInf(weight, 0) {
		return fmt.Errorf("graph: node %d weight %g must be finite and non-negative", v, weight)
	}
	g.weights[v] = weight
	return nil
}

// SetEdgeData updates data(u,v) in place, keeping the forward and backward
// adjacency lists consistent. It rejects a missing edge and non-finite or
// negative data with an error.
func (g *Graph) SetEdgeData(u, v int, data float64) error {
	n := len(g.weights)
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
	}
	if data < 0 || math.IsNaN(data) || math.IsInf(data, 0) {
		return fmt.Errorf("graph: edge (%d,%d) data %g must be finite and non-negative", u, v, data)
	}
	found := false
	for i := range g.succ[u] {
		if g.succ[u][i].Node == v {
			g.succ[u][i].Data = data
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("graph: set_data on missing edge (%d,%d)", u, v)
	}
	for i := range g.pred[v] {
		if g.pred[v][i].Node == u {
			g.pred[v][i].Data = data
			break
		}
	}
	return nil
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.weights) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return g.edges }

// Weight returns w(v).
func (g *Graph) Weight(v int) float64 { return g.weights[v] }

// Label returns the label given to AddNode.
func (g *Graph) Label(v int) string { return g.labels[v] }

// Succ returns the successor adjacency of v. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Succ(v int) []Adj { return g.succ[v] }

// Pred returns the predecessor adjacency of v. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Pred(v int) []Adj { return g.pred[v] }

// InDegree returns the number of predecessors of v.
func (g *Graph) InDegree(v int) int { return len(g.pred[v]) }

// OutDegree returns the number of successors of v.
func (g *Graph) OutDegree(v int) int { return len(g.succ[v]) }

// EdgeData returns the data volume of edge (u,v) and whether the edge exists.
func (g *Graph) EdgeData(u, v int) (float64, bool) {
	for _, a := range g.succ[u] {
		if a.Node == v {
			return a.Data, true
		}
	}
	return 0, false
}

// Edges enumerates every edge in node order.
func (g *Graph) Edges() []Edge {
	return g.EdgesAppend(make([]Edge, 0, g.edges))
}

// EdgesAppend appends every edge in node order to dst and returns the
// extended slice. It is the allocation-free form of Edges for callers that
// recycle an edge buffer (the service's canonical request hashing).
func (g *Graph) EdgesAppend(dst []Edge) []Edge {
	for u := range g.succ {
		for _, a := range g.succ[u] {
			dst = append(dst, Edge{From: u, To: a.Node, Data: a.Data})
		}
	}
	return dst
}

// Sources returns all nodes with no predecessors, in id order.
func (g *Graph) Sources() []int {
	var out []int
	for v := range g.pred {
		if len(g.pred[v]) == 0 {
			out = append(out, v)
		}
	}
	return out
}

// Sinks returns all nodes with no successors, in id order.
func (g *Graph) Sinks() []int {
	var out []int
	for v := range g.succ {
		if len(g.succ[v]) == 0 {
			out = append(out, v)
		}
	}
	return out
}

// TotalWeight returns the sum of all node weights.
func (g *Graph) TotalWeight() float64 {
	var w float64
	for _, x := range g.weights {
		w += x
	}
	return w
}

// TotalData returns the sum of all edge data volumes.
func (g *Graph) TotalData() float64 {
	var d float64
	for u := range g.succ {
		for _, a := range g.succ[u] {
			d += a.Data
		}
	}
	return d
}

// ErrCycle is reported by TopoOrder and Validate when the graph contains a
// directed cycle.
var ErrCycle = errors.New("graph: not a DAG (cycle detected)")

// TopoOrder returns the node ids in a topological order (Kahn's algorithm
// with a FIFO queue: the sources in id order, then each node as it becomes
// ready, so the order is deterministic).
func (g *Graph) TopoOrder() ([]int, error) {
	n := len(g.weights)
	indeg := make([]int, n)
	for v := range g.pred {
		indeg[v] = len(g.pred[v])
	}
	// The queue is order itself: sources are pushed in id order, each node
	// pushes its successors in adjacency order as they become ready, every
	// node is appended once, and order[head] is the next one to pop.
	order := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			order = append(order, v)
		}
	}
	for head := 0; head < len(order); head++ {
		for _, a := range g.succ[order[head]] {
			indeg[a.Node]--
			if indeg[a.Node] == 0 {
				order = append(order, a.Node)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCycle
	}
	return order, nil
}

// Validate checks structural invariants: acyclicity and consistency of the
// forward and backward adjacency lists.
func (g *Graph) Validate() error {
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	fwd := 0
	for u := range g.succ {
		fwd += len(g.succ[u])
	}
	bwd := 0
	for v := range g.pred {
		bwd += len(g.pred[v])
	}
	if fwd != g.edges || bwd != g.edges {
		return fmt.Errorf("graph: adjacency mismatch fwd=%d bwd=%d edges=%d", fwd, bwd, g.edges)
	}
	for u := range g.succ {
		for _, a := range g.succ[u] {
			found := false
			for _, b := range g.pred[a.Node] {
				if b.Node == u && b.Data == a.Data {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("graph: edge (%d,%d) missing from pred list", u, a.Node)
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		weights: append([]float64(nil), g.weights...),
		labels:  append([]string(nil), g.labels...),
		succ:    make([][]Adj, len(g.succ)),
		pred:    make([][]Adj, len(g.pred)),
		edges:   g.edges,
	}
	for i := range g.succ {
		c.succ[i] = append([]Adj(nil), g.succ[i]...)
	}
	for i := range g.pred {
		c.pred[i] = append([]Adj(nil), g.pred[i]...)
	}
	return c
}

// CriticalPathWeight returns the maximum, over all paths, of the sum of node
// weights along the path (communication ignored). It is a lower bound on any
// makespan when divided by the fastest processor speed.
func (g *Graph) CriticalPathWeight() (float64, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return 0, err
	}
	best := make([]float64, len(g.weights))
	var max float64
	for _, v := range order {
		b := 0.0
		for _, a := range g.pred[v] {
			if best[a.Node] > b {
				b = best[a.Node]
			}
		}
		best[v] = b + g.weights[v]
		if best[v] > max {
			max = best[v]
		}
	}
	return max, nil
}
