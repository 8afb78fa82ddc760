package platform

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"oneport/internal/jsonw"
)

// jsonPlatform is the wire representation used by MarshalJSON/UnmarshalJSON.
// Missing wires (link(q,r) = +Inf on a sparse topology) are encoded as JSON
// null, since JSON has no literal for infinity.
type jsonPlatform struct {
	Cycles []float64 `json:"cycles"`
	Link   [][]*jnum `json:"link,omitempty"`
	// UniformLink is a shorthand accepted on input: when Link is absent, the
	// platform is fully connected with this single off-diagonal cost.
	UniformLink *float64 `json:"uniform_link,omitempty"`
}

// jnum is a float64 whose JSON null means +Inf (no direct wire).
type jnum float64

func (n jnum) MarshalJSON() ([]byte, error) {
	return json.Marshal(float64(n))
}

// MarshalJSON encodes the platform as
// {"cycles":[...],"link":[[...]]}, with null entries for missing wires.
// The encoding round-trips through UnmarshalJSON, sparse topologies
// included.
func (pl *Platform) MarshalJSON() ([]byte, error) {
	jp := jsonPlatform{
		Cycles: append([]float64(nil), pl.cycle...),
		Link:   make([][]*jnum, len(pl.link)),
	}
	for q := range pl.link {
		row := make([]*jnum, len(pl.link[q]))
		for r, c := range pl.link[q] {
			if !math.IsInf(c, 1) {
				v := jnum(c)
				row[r] = &v
			}
		}
		jp.Link[q] = row
	}
	return json.Marshal(jp)
}

// UnmarshalJSON decodes a platform previously produced by MarshalJSON, or
// the {"cycles":[...],"uniform_link":c} shorthand for fully-connected
// platforms. It runs the same validation as New, so malformed payloads
// (non-positive cycle-times, ragged matrices, negative links, non-zero
// diagonals) fail with errors rather than building a corrupt platform.
//
// The single-pass ReadJSON runs first; any payload it does not accept is
// decoded by encoding/json, the reference and the source of every error.
func (pl *Platform) UnmarshalJSON(data []byte) error {
	r := jsonw.NewReader(data)
	if pl.ReadJSON(&r) && r.End() {
		return nil
	}
	var jp jsonPlatform
	if err := json.Unmarshal(data, &jp); err != nil {
		return err
	}
	if jp.Link == nil {
		cost := 1.0
		if jp.UniformLink != nil {
			cost = *jp.UniformLink
		}
		built, err := Uniform(jp.Cycles, cost)
		if err != nil {
			return err
		}
		*pl = *built
		return nil
	}
	if jp.UniformLink != nil {
		return fmt.Errorf("platform: JSON carries both link and uniform_link")
	}
	link := make([][]float64, len(jp.Link))
	for q := range jp.Link {
		link[q] = make([]float64, len(jp.Link[q]))
		for r, c := range jp.Link[q] {
			if c == nil {
				link[q][r] = math.Inf(1)
			} else {
				link[q][r] = float64(*c)
			}
		}
	}
	built, err := New(jp.Cycles, link)
	if err != nil {
		return err
	}
	*pl = *built
	return nil
}

// readScratch is the pooled state of one ReadJSON: the cycle-times and the
// link matrix as read, rows back to back in cells.
type readScratch struct {
	cycles []float64
	cells  []float64
	rows   [][]float64
	ends   []int // ends[q] is the end of row q in cells
}

var readPool = sync.Pool{New: func() any { return new(readScratch) }}

// ReadJSON reads into pl, in one pass, a platform in the form MarshalJSON
// writes — {"cycles":[...],"link":[[...],...]} with null for a missing
// wire — or the {"cycles":[...],"uniform_link":c} shorthand, keys in any
// order, within the subset jsonw.Reader accepts. It builds through New or
// Uniform exactly as UnmarshalJSON does. It reports false, with r failed
// and pl unchanged, for anything else; the caller then decodes with
// encoding/json.
func (pl *Platform) ReadJSON(r *jsonw.Reader) bool {
	sc := readPool.Get().(*readScratch)
	defer readPool.Put(sc)
	sc.cycles, sc.cells, sc.ends = sc.cycles[:0], sc.cells[:0], sc.ends[:0]

	var seen uint32
	uniform := 1.0
	r.Open('{')
	for i := 0; r.More(i, '}'); i++ {
		switch string(r.Key()) {
		case "cycles":
			r.Once(&seen, 1)
			r.Open('[')
			for j := 0; r.More(j, ']'); j++ {
				sc.cycles = append(sc.cycles, r.Float())
			}
		case "link":
			r.Once(&seen, 2)
			r.Open('[')
			for j := 0; r.More(j, ']'); j++ {
				r.Open('[')
				for k := 0; r.More(k, ']'); k++ {
					c := math.Inf(1)
					if !r.Null() {
						c = r.Float()
					}
					sc.cells = append(sc.cells, c)
				}
				sc.ends = append(sc.ends, len(sc.cells))
			}
		case "uniform_link":
			r.Once(&seen, 4)
			uniform = r.Float()
		default:
			r.Fail()
		}
	}
	if r.Failed() || seen&6 == 6 {
		r.Fail()
		return false
	}
	var built *Platform
	var err error
	if seen&2 == 0 {
		built, err = Uniform(sc.cycles, uniform)
	} else {
		sc.rows = sc.rows[:0]
		start := 0
		for _, end := range sc.ends {
			sc.rows = append(sc.rows, sc.cells[start:end])
			start = end
		}
		built, err = New(sc.cycles, sc.rows)
	}
	if err != nil {
		r.Fail()
		return false
	}
	*pl = *built
	return true
}
