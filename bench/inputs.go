package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"

	"oneport/internal/exp"
	"oneport/internal/graph"
	"oneport/internal/heuristics"
	"oneport/internal/platform"
	"oneport/internal/sched"
	"oneport/internal/service"
	"oneport/internal/testbeds"
)

// Every workload draws its inputs from the seed, but the seed only varies
// details that leave the cost of a run about the same: the random-layered
// graphs, the processor order and link costs of the generated platforms,
// the order of operations and the spliced weights. Which graph runs under
// which heuristic and model is a fixed rotation, so two seeds measure the
// same mix of work.

// kernelHeuristics is the heuristic rotation of the kernel list: heft and
// ilha 30 % each, cpop and dls 15 % each, bil 10 %.
var kernelHeuristics = [20]string{
	"heft", "ilha", "cpop", "heft", "ilha", "dls", "heft", "ilha", "bil", "heft",
	"ilha", "cpop", "heft", "ilha", "dls", "heft", "ilha", "cpop", "dls", "bil",
}

// kernelModels is the model rotation of the kernel list: mostly the paper's
// one-port model, with macro-dataflow, link contention and uni-port mixed in.
var kernelModels = [7]sched.Model{
	sched.OnePort, sched.OnePort, sched.MacroDataflow, sched.OnePort,
	sched.LinkContention, sched.OnePort, sched.UniPort,
}

// instance is one offline scheduling problem of the kernel workload.
type instance struct {
	name  string
	g     *graph.Graph
	pl    *platform.Platform
	heur  string
	opts  heuristics.ILHAOptions
	model sched.Model
}

// namedGraph is a graph with the name it is reported under and the ILHA
// chunk size the paper found best for its testbed (0: platform default).
type namedGraph struct {
	name string
	g    *graph.Graph
	b    int
}

// paperGraphs returns the six paper testbeds at their figure sizes and at
// half and quarter size.
func paperGraphs() ([]namedGraph, error) {
	sizes := map[string]int{"fig7": 300, "fig8": 60, "fig9": 40, "fig10": 40, "fig11": 60, "fig12": 40}
	var out []namedGraph
	for _, fig := range exp.Figures {
		for _, div := range []int{1, 2, 4} {
			n := sizes[fig.ID] / div
			g, err := testbeds.ByName(fig.Testbed, n, exp.CommRatio)
			if err != nil {
				return nil, err
			}
			out = append(out, namedGraph{fmt.Sprintf("%s%d", fig.Testbed, n), g, fig.B})
		}
	}
	return out, nil
}

// randomPlatform returns a fully connected platform of p processors whose
// cycle-times cycle through the paper's {6, 10, 15} plus faster 3 and 5,
// assigned to processors in seeded order, with seeded symmetric link costs
// in {0.5, 1, 2}. The cycle-time multiset depends on p alone, so ILHA's
// perfect-balance chunk, and with it the cost of a run, does not change
// with the seed.
func randomPlatform(rng *rand.Rand, p int) (*platform.Platform, error) {
	cycles := make([]float64, p)
	for i := range cycles {
		cycles[i] = []float64{3, 5, 6, 10, 15}[i%5]
	}
	rng.Shuffle(p, func(i, j int) { cycles[i], cycles[j] = cycles[j], cycles[i] })
	link := make([][]float64, p)
	for q := range link {
		link[q] = make([]float64, p)
	}
	for q := 0; q < p; q++ {
		for r := q + 1; r < p; r++ {
			c := []float64{0.5, 1, 2}[rng.Intn(3)]
			link[q][r], link[r][q] = c, c
		}
	}
	return platform.New(cycles, link)
}

// kernelList builds the kernel workload's instance list: every kernel
// graph on the paper platform and on seeded 16- and 32-processor
// platforms, each pair with a heuristic and model from the fixed
// rotations, in seeded order.
func kernelList(seed int64) ([]instance, error) {
	rng := rand.New(rand.NewSource(seed))
	paper, err := paperGraphs()
	if err != nil {
		return nil, err
	}
	platforms := []*platform.Platform{platform.Paper()}
	for _, p := range []int{16, 32} {
		pl, err := randomPlatform(rng, p)
		if err != nil {
			return nil, err
		}
		platforms = append(platforms, pl)
	}
	var list []instance
	for pi, pl := range platforms {
		// each platform gets its own two random-layered graphs
		graphs := append(slices.Clip(paper),
			namedGraph{"random20x15", testbeds.RandomLayered(rng.Int63(), 20, 15, 10, exp.CommRatio), 0},
			namedGraph{"random12x10", testbeds.RandomLayered(rng.Int63(), 12, 10, 10, exp.CommRatio), 0})
		for gi, ng := range graphs {
			k := gi + 7*pi // the offset gives each graph another heuristic on each platform
			in := instance{
				g:     ng.g,
				pl:    pl,
				heur:  kernelHeuristics[k%len(kernelHeuristics)],
				model: kernelModels[k%len(kernelModels)],
			}
			if in.heur == "ilha" && pi == 0 {
				in.opts.B = ng.b
			}
			in.name = fmt.Sprintf("%s/p%d/%s/%s", ng.name, pl.NumProcs(), in.heur, in.model)
			list = append(list, in)
		}
	}
	rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	return list, nil
}

// A template is a pre-encoded request body with a fixed-width field that is
// rewritten per request, so that each request is a distinct scheduling
// problem without encoding a new body: the first task's weight is written
// as <integer>.<9 digits>, and the digits are replaced by a request number.
type template struct {
	name  string
	req   service.Request
	body  []byte
	digit int // offset of the 9 spliced digits in body
}

const spliceDigits = 9

// weightMark is the fraction task 0's weight carries in a template's
// encoding; the splice replaces it.
const weightMark = 0.123456789

// newTemplate encodes req with task 0's weight re-written to carry the
// splice field. prefix is written before the encoded request (the hot-zipf
// re-spellings put a whitespace field there).
func newTemplate(name string, req service.Request, prefix []byte) (*template, error) {
	g := req.Graph.Clone()
	if err := g.SetWeight(0, math.Floor(g.Weight(0))+weightMark); err != nil {
		return nil, err
	}
	req.Graph = g
	enc, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	body := append(append([]byte{}, prefix...), enc...)
	mark := []byte(strconv.FormatFloat(weightMark, 'f', -1, 64)[1:]) // ".123456789"
	at := bytes.Index(body, mark)
	if at < 0 || bytes.Index(body[at+1:], mark) >= 0 {
		return nil, fmt.Errorf("template %s: splice mark not found exactly once", name)
	}
	return &template{name: name, req: req, body: body, digit: at + 1}, nil
}

// splice writes t's body with request number u into dst (reusing its
// storage) and returns it.
func (t *template) splice(dst []byte, u int) []byte {
	dst = append(dst[:0], t.body...)
	putDigits(dst[t.digit:t.digit+spliceDigits], u)
	return dst
}

// putDigits writes u as zero-padded decimal into dst.
func putDigits(dst []byte, u int) {
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = byte('0' + u%10)
		u /= 10
	}
}

// coldMixHeuristics is the cold-mix heuristic rotation: heft 50 %, ilha
// 20 %, cpop, dls and bil 10 % each.
var coldMixHeuristics = [10]string{"heft", "ilha", "heft", "cpop", "heft", "dls", "heft", "ilha", "heft", "bil"}

// coldMixTemplates returns the 110 cold-mix templates: 11 graph slots of
// 50–300 tasks on the paper platform × the 10-long heuristic rotation.
// Eight slots are paper testbeds; the three random-layered slots draw a
// fresh graph for every template, so the mix averages over 30 random
// graphs instead of hanging on three.
func coldMixTemplates(rng *rand.Rand) ([]*template, error) {
	type slot struct {
		name          string
		g             *graph.Graph
		b             int
		layers, width int // random-layered shape when g is nil
	}
	slots := []slot{
		{"forkjoin100", testbeds.ForkJoin(100, exp.CommRatio), 38, 0, 0},
		{"forkjoin250", testbeds.ForkJoin(250, exp.CommRatio), 38, 0, 0},
		{"lu15", testbeds.LU(15, exp.CommRatio), 4, 0, 0},
		{"lu22", testbeds.LU(22, exp.CommRatio), 4, 0, 0},
		{"laplace8", testbeds.Laplace(8, exp.CommRatio), 38, 0, 0},
		{"laplace15", testbeds.Laplace(15, exp.CommRatio), 38, 0, 0},
		{"stencil10", testbeds.Stencil(10, exp.CommRatio), 38, 0, 0},
		{"stencil16", testbeds.Stencil(16, exp.CommRatio), 38, 0, 0},
		{"random8x8", nil, 0, 8, 8},
		{"random15x12", nil, 0, 15, 12},
		{"random20x15", nil, 0, 20, 15},
	}
	var out []*template
	for k := 0; k < len(slots)*len(coldMixHeuristics); k++ {
		sl := slots[k%len(slots)]
		g := sl.g
		if g == nil {
			g = testbeds.RandomLayered(rng.Int63(), sl.layers, sl.width, 10, exp.CommRatio)
		}
		heur := coldMixHeuristics[k%len(coldMixHeuristics)]
		req := service.Request{Graph: g, Platform: platform.Paper(), Heuristic: heur, Model: "oneport"}
		if heur == "ilha" {
			req.Options.B = sl.b
		}
		t, err := newTemplate(sl.name+"/"+heur, req, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// catalogueSize is the number of distinct hot-zipf requests: twice the
// server's default 256-entry cache, so the Zipf tail misses and evicts.
const catalogueSize = 512

// respellWidth is the whitespace field in front of a re-spelled hot-zipf
// body; 4^12 distinct fillings keep every re-spelling a new byte form.
const respellWidth = 12

// catalogueEntry is one distinct hot-zipf request in two spellings: exact
// (the bytes the byte index knows) and re-spelled (edges reversed, model
// "1port", and a whitespace field rewritten per request), which only the
// canonical key recognises.
type catalogueEntry struct {
	exact    []byte
	respell  *template
	u        int // splice number both spellings carry
	tasks    int
	template int // index of the template pair the entry was spliced from
}

// hotZipfCatalogue builds the hot-zipf catalogue: entry c uses template
// c mod 16 (8 graphs of at most 150 tasks × heft, ilha), so the most
// popular entries are the same shapes for every seed.
func hotZipfCatalogue(rng *rand.Rand) ([]catalogueEntry, error) {
	graphs := []namedGraph{
		{"forkjoin60", testbeds.ForkJoin(60, exp.CommRatio), 38},
		{"lu12", testbeds.LU(12, exp.CommRatio), 4},
		{"laplace10", testbeds.Laplace(10, exp.CommRatio), 38},
		{"stencil8", testbeds.Stencil(8, exp.CommRatio), 38},
		{"random6x8", testbeds.RandomLayered(rng.Int63(), 6, 8, 10, exp.CommRatio), 0},
		{"forkjoin140", testbeds.ForkJoin(140, exp.CommRatio), 38},
		{"random10x12", testbeds.RandomLayered(rng.Int63(), 10, 12, 10, exp.CommRatio), 0},
		{"laplace12", testbeds.Laplace(12, exp.CommRatio), 38},
	}
	type pair struct{ exact, respell *template }
	var tpls []pair
	for _, heur := range []string{"heft", "ilha"} {
		for _, ng := range graphs {
			req := service.Request{Graph: ng.g, Platform: platform.Paper(), Heuristic: heur, Model: "oneport"}
			if heur == "ilha" {
				req.Options.B = ng.b
			}
			ex, err := newTemplate(ng.name+"/"+heur, req, nil)
			if err != nil {
				return nil, err
			}
			alt := req
			alt.Graph, alt.Model = reversedEdges(ng.g), "1port"
			rs, err := newTemplate(ng.name+"/"+heur+"/respelled", alt, bytes.Repeat([]byte{' '}, respellWidth))
			if err != nil {
				return nil, err
			}
			tpls = append(tpls, pair{ex, rs})
		}
	}
	base := rng.Intn(1000) * 1000 // seeds differ in the spliced weights too
	out := make([]catalogueEntry, catalogueSize)
	for c := range out {
		p := tpls[c%len(tpls)]
		u := base + c
		out[c] = catalogueEntry{exact: p.exact.splice(nil, u), respell: p.respell, u: u, tasks: p.exact.req.Graph.NumNodes(), template: c % len(tpls)}
	}
	return out, nil
}

// respelled writes entry e's re-spelled body for request number n into dst:
// the whitespace field is filled with the base-4 digits of n.
func (e *catalogueEntry) respelled(dst []byte, n int) []byte {
	dst = e.respell.splice(dst, e.u)
	for i := 0; i < respellWidth; i++ {
		dst[i] = " \t\n\r"[n&3]
		n >>= 2
	}
	return dst
}

// reversedEdges copies g with its edges inserted in reverse order, so it
// encodes to other bytes but describes the same problem.
func reversedEdges(g *graph.Graph) *graph.Graph {
	ng := graph.New(g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		ng.AddNode(g.Weight(v), g.Label(v))
	}
	edges := g.Edges()
	for i := len(edges) - 1; i >= 0; i-- {
		ng.MustEdge(edges[i].From, edges[i].To, edges[i].Data)
	}
	return ng
}
