package graph

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"oneport/internal/jsonw"
)

// jsonGraph is the on-disk representation used by MarshalJSON/UnmarshalJSON.
type jsonGraph struct {
	Nodes []jsonNode `json:"nodes"`
	Edges []Edge     `json:"edges"`
}

type jsonNode struct {
	Weight float64 `json:"weight"`
	Label  string  `json:"label,omitempty"`
}

// MarshalJSON encodes the graph as {"nodes":[...],"edges":[...]}.
func (g *Graph) MarshalJSON() ([]byte, error) {
	jg := jsonGraph{Nodes: make([]jsonNode, g.NumNodes()), Edges: g.Edges()}
	for v := 0; v < g.NumNodes(); v++ {
		jg.Nodes[v] = jsonNode{Weight: g.weights[v], Label: g.labels[v]}
	}
	return json.Marshal(jg)
}

// UnmarshalJSON decodes a graph previously produced by MarshalJSON. Any
// malformed payload — negative or non-finite weights, out-of-range or
// duplicate edge endpoints, self loops, negative data, cycles — is rejected
// with an error; a successfully decoded graph always passes Validate, so
// callers feeding untrusted payloads (the scheduling service) never
// schedule a structurally broken DAG.
//
// The single-pass ReadJSON runs first; any payload it does not accept is
// decoded by encoding/json, the reference and the source of every error.
func (g *Graph) UnmarshalJSON(data []byte) error {
	r := jsonw.NewReader(data)
	if g.ReadJSON(&r) && r.End() {
		return nil
	}
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return err
	}
	*g = Graph{}
	for i, n := range jg.Nodes {
		if n.Weight < 0 || math.IsNaN(n.Weight) || math.IsInf(n.Weight, 0) {
			return fmt.Errorf("graph: node %d weight %g in JSON must be finite and non-negative", i, n.Weight)
		}
		g.AddNode(n.Weight, n.Label)
	}
	for _, e := range jg.Edges {
		if math.IsNaN(e.Data) || math.IsInf(e.Data, 0) {
			return fmt.Errorf("graph: edge (%d,%d) data %g in JSON must be finite", e.From, e.To, e.Data)
		}
		if err := g.AddEdge(e.From, e.To, e.Data); err != nil {
			return err
		}
	}
	if err := g.Validate(); err != nil {
		return err
	}
	return nil
}

// readScratch is the pooled state of one ReadJSON: the nodes and edges as
// read, before the graph is built, since "edges" may come before "nodes".
type readScratch struct {
	weights []float64
	labels  []byte // every label's bytes, back to back
	ends    []int  // ends[v] is the end of label v in labels
	edges   []Edge
	deg     []int // out-degree then in-degree per node
}

var readPool = sync.Pool{New: func() any { return new(readScratch) }}

// ReadJSON reads into g, in one pass, a graph in the form MarshalJSON
// writes: {"nodes":[{"weight":w,"label":"l"},...],"edges":[{"From":u,
// "To":v,"Data":d},...]}, keys in any order and each optional, within the
// subset jsonw.Reader accepts. It applies UnmarshalJSON's checks — finite
// non-negative weights, AddEdge's checks in input order, Validate — and
// builds the same graph, adjacency order included. It reports false, with
// r failed and g unchanged, for anything else; the caller then decodes
// with encoding/json.
func (g *Graph) ReadJSON(r *jsonw.Reader) bool {
	sc := readPool.Get().(*readScratch)
	defer readPool.Put(sc)
	sc.weights, sc.labels, sc.ends, sc.edges = sc.weights[:0], sc.labels[:0], sc.ends[:0], sc.edges[:0]

	var seen uint32
	r.Open('{')
	for i := 0; r.More(i, '}'); i++ {
		switch string(r.Key()) {
		case "nodes":
			r.Once(&seen, 1)
			r.Open('[')
			for j := 0; r.More(j, ']'); j++ {
				sc.readNode(r)
			}
		case "edges":
			r.Once(&seen, 2)
			r.Open('[')
			for j := 0; r.More(j, ']'); j++ {
				sc.readEdge(r)
			}
		default:
			r.Fail()
		}
	}
	if r.Failed() {
		return false
	}
	built, ok := sc.build()
	if !ok {
		r.Fail()
		return false
	}
	*g = built
	return true
}

func (sc *readScratch) readNode(r *jsonw.Reader) {
	var seen uint32
	w := 0.0
	r.Open('{')
	for i := 0; r.More(i, '}'); i++ {
		switch string(r.Key()) {
		case "weight":
			r.Once(&seen, 1)
			w = r.Float()
		case "label":
			r.Once(&seen, 2)
			sc.labels = append(sc.labels, r.String()...)
		default:
			r.Fail()
		}
	}
	sc.weights = append(sc.weights, w)
	sc.ends = append(sc.ends, len(sc.labels))
}

func (sc *readScratch) readEdge(r *jsonw.Reader) {
	var seen uint32
	var e Edge
	r.Open('{')
	for i := 0; r.More(i, '}'); i++ {
		switch string(r.Key()) {
		case "From":
			r.Once(&seen, 1)
			e.From = r.Int()
		case "To":
			r.Once(&seen, 2)
			e.To = r.Int()
		case "Data":
			r.Once(&seen, 4)
			e.Data = r.Float()
		default:
			r.Fail()
		}
	}
	sc.edges = append(sc.edges, e)
}

// build makes the graph UnmarshalJSON would, or reports false wherever
// UnmarshalJSON would fail: nodes in order, then every edge through
// AddEdge's checks in input order, then Validate. It lays each node's
// adjacency out in one shared backing array per direction instead of
// growing it edge by edge.
func (sc *readScratch) build() (Graph, bool) {
	n, m := len(sc.weights), len(sc.edges)
	if n == 0 {
		return Graph{}, m == 0
	}
	for _, w := range sc.weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return Graph{}, false
		}
	}
	deg := slices.Grow(sc.deg[:0], 2*n)[:2*n]
	clear(deg)
	sc.deg = deg
	out, in := deg[:n], deg[n:]
	for _, e := range sc.edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return Graph{}, false
		}
		out[e.From]++
		in[e.To]++
	}
	g := Graph{
		weights: append([]float64(nil), sc.weights...),
		labels:  make([]string, n),
		succ:    make([][]Adj, n),
		pred:    make([][]Adj, n),
	}
	all := string(sc.labels)
	start := 0
	for v, end := range sc.ends {
		g.labels[v] = all[start:end]
		start = end
	}
	carve(g.succ, out, make([]Adj, m))
	carve(g.pred, in, make([]Adj, m))
	for _, e := range sc.edges {
		if e.From == e.To || e.Data < 0 {
			return Graph{}, false
		}
		g.succ[e.From] = append(g.succ[e.From], Adj{Node: e.To, Data: e.Data})
		g.pred[e.To] = append(g.pred[e.To], Adj{Node: e.From, Data: e.Data})
		g.edges++
	}
	// AddEdge refuses a duplicate edge; one pass with a stamp per node
	// finds any, where AddEdge's scan of succ[u] is quadratic in fan-out
	stamp := out
	clear(stamp)
	for u := range g.succ {
		for _, a := range g.succ[u] {
			if stamp[a.Node] == u+1 {
				return Graph{}, false
			}
			stamp[a.Node] = u + 1
		}
	}
	if g.Validate() != nil {
		return Graph{}, false
	}
	return g, true
}

// carve gives each node with deg[v] > 0 an empty slice of capacity deg[v]
// cut from back; nodes without edges keep nil, as AddEdge leaves them.
func carve(adj [][]Adj, deg []int, back []Adj) {
	off := 0
	for v, d := range deg {
		if d > 0 {
			adj[v] = back[off : off : off+d]
			off += d
		}
	}
}

// DOT renders the graph in Graphviz dot syntax. Node labels include the
// weight; edge labels carry the data volume.
func (g *Graph) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	b.WriteString("  rankdir=TB;\n  node [shape=circle];\n")
	for v := 0; v < g.NumNodes(); v++ {
		label := g.labels[v]
		if label == "" {
			label = fmt.Sprintf("v%d", v)
		}
		fmt.Fprintf(&b, "  n%d [label=\"%s\\nw=%g\"];\n", v, label, g.weights[v])
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  n%d -> n%d [label=\"%g\"];\n", e.From, e.To, e.Data)
	}
	b.WriteString("}\n")
	return b.String()
}
