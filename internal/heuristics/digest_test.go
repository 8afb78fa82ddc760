package heuristics

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"oneport/internal/graph"
	"oneport/internal/platform"
	"oneport/internal/sched"
	"oneport/internal/testbeds"
)

// scheduleDigest is the SHA-256 of the JSON of every schedule
// TestScheduleDigest builds. A change to it must be deliberate: it means
// some heuristic now places some task or message differently.
const scheduleDigest = "2c7bdfd0561c2d075ab78e7f2f69740e64339ca8962803aee25b9a5d5e8923fb"

// TestScheduleDigest pins every registered heuristic's schedules byte for
// byte: each Names() heuristic under each model, on four paper testbeds,
// on the paper platform and on the routed line4 platform (440 schedules),
// hashed in that order.
func TestScheduleDigest(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"lu20", testbeds.LU(20, 10)}, {"forkjoin100", testbeds.ForkJoin(100, 10)},
		{"laplace12", testbeds.Laplace(12, 10)}, {"stencil12", testbeds.Stencil(12, 10)},
	}
	h := sha256.New()
	var buf []byte
	n := 0
	for _, name := range Names() {
		run, err := ByName(name, ILHAOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range sched.Models() {
			for _, c := range graphs {
				for _, pl := range []*platform.Platform{platform.Paper(), linePlatform(4)} {
					s, err := run(c.g, pl, model)
					if err != nil {
						t.Fatalf("%s/%s/%s: %v", name, model, c.name, err)
					}
					if buf, err = s.AppendJSON(buf[:0]); err != nil {
						t.Fatal(err)
					}
					h.Write(buf)
					n++
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != scheduleDigest {
		t.Fatalf("digest of %d schedules is %s, want %s", n, got, scheduleDigest)
	}
}
