package platform

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// samePlatform compares every observable of two platforms.
func samePlatform(t *testing.T, a, b *Platform) {
	t.Helper()
	if a.NumProcs() != b.NumProcs() {
		t.Fatalf("procs: %d vs %d", a.NumProcs(), b.NumProcs())
	}
	if a.Sparse() != b.Sparse() {
		t.Fatalf("sparse: %v vs %v", a.Sparse(), b.Sparse())
	}
	for i := 0; i < a.NumProcs(); i++ {
		if a.CycleTime(i) != b.CycleTime(i) {
			t.Fatalf("cycle %d: %g vs %g", i, a.CycleTime(i), b.CycleTime(i))
		}
		for j := 0; j < a.NumProcs(); j++ {
			if a.Link(i, j) != b.Link(i, j) {
				t.Fatalf("link(%d,%d): %g vs %g", i, j, a.Link(i, j), b.Link(i, j))
			}
		}
	}
}

func TestPlatformJSONRoundTrip(t *testing.T) {
	pl := Paper()
	data, err := json.Marshal(pl)
	if err != nil {
		t.Fatal(err)
	}
	var back Platform
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	samePlatform(t, pl, &back)
}

func TestPlatformJSONRoundTripSparse(t *testing.T) {
	// ring of 4: only neighbours are wired; routing must still work after
	// the round trip
	inf := math.Inf(1)
	link := [][]float64{
		{0, 1, inf, 1},
		{1, 0, 1, inf},
		{inf, 1, 0, 1},
		{1, inf, 1, 0},
	}
	pl, err := New([]float64{1, 2, 3, 4}, link)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(pl)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "null") {
		t.Fatalf("sparse encoding should carry null wires: %s", data)
	}
	var back Platform
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	samePlatform(t, pl, &back)
	if !back.Sparse() {
		t.Fatal("round-tripped platform lost sparsity")
	}
	rtA, err := pl.Routes()
	if err != nil {
		t.Fatal(err)
	}
	rtB, err := back.Routes()
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 4; q++ {
		for r := 0; r < 4; r++ {
			if rtA.Dist(q, r) != rtB.Dist(q, r) || rtA.Hops(q, r) != rtB.Hops(q, r) {
				t.Fatalf("route %d->%d differs after round trip", q, r)
			}
		}
	}
}

func TestPlatformJSONUniformShorthand(t *testing.T) {
	var pl Platform
	if err := json.Unmarshal([]byte(`{"cycles":[6,10,15],"uniform_link":2}`), &pl); err != nil {
		t.Fatal(err)
	}
	want, err := Uniform([]float64{6, 10, 15}, 2)
	if err != nil {
		t.Fatal(err)
	}
	samePlatform(t, want, &pl)

	// no uniform_link: unit links
	var unit Platform
	if err := json.Unmarshal([]byte(`{"cycles":[1,1]}`), &unit); err != nil {
		t.Fatal(err)
	}
	if unit.Link(0, 1) != 1 {
		t.Fatalf("default uniform link = %g, want 1", unit.Link(0, 1))
	}
}

func TestPlatformJSONErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"no processors", `{"cycles":[]}`},
		{"negative cycle", `{"cycles":[1,-2]}`},
		{"zero cycle", `{"cycles":[0],"link":[[0]]}`},
		{"ragged link", `{"cycles":[1,1],"link":[[0,1],[1]]}`},
		{"short link", `{"cycles":[1,1],"link":[[0,1]]}`},
		{"diag nonzero", `{"cycles":[1,1],"link":[[1,1],[1,0]]}`},
		{"negative link", `{"cycles":[1,1],"link":[[0,-1],[1,0]]}`},
		{"both link forms", `{"cycles":[1,1],"uniform_link":1,"link":[[0,1],[1,0]]}`},
		{"not json", `{"cycles":`},
	}
	for _, c := range cases {
		var pl Platform
		if err := json.Unmarshal([]byte(c.in), &pl); err == nil {
			t.Errorf("%s: want error, got platform with %d procs", c.name, pl.NumProcs())
		}
	}
}
