package sched

import (
	"math"
	"testing"
)

// FuzzIntervalsAdd feeds arbitrary interval sequences into the timeline and
// checks the structural invariants plus gap-search consistency: the result
// is free, not before its start, and the single-timeline walk equals the
// k-view walk bit for bit. Run with
// `go test -fuzz FuzzIntervalsAdd ./internal/sched` for continuous fuzzing;
// the seed corpus below runs as part of the normal suite.
func FuzzIntervalsAdd(f *testing.F) {
	f.Add(1.0, 2.0, 3.0, 4.0, 0.5, 2.5)
	f.Add(0.0, 0.0, -1.0, 5.0, 2.0, 2.0)
	f.Add(10.0, 1.0, 1.0, 10.0, 5.0, 6.0)
	f.Fuzz(func(t *testing.T, a1, e1, a2, e2, after, dur float64) {
		if bad(a1) || bad(e1) || bad(a2) || bad(e2) || bad(after) || bad(dur) {
			t.Skip()
		}
		var s Intervals
		s.Add(a1, e1)
		s.Add(a2, e2)
		all := s.All()
		for i := range all {
			if all[i].End <= all[i].Start {
				t.Fatalf("degenerate interval %v after adds", all[i])
			}
			if i > 0 && all[i-1].End >= all[i].Start {
				t.Fatalf("unmerged intervals %v", all)
			}
		}
		if dur < 0 {
			dur = -dur
		}
		if after < 0 {
			after = -after
		}
		got := s.EarliestGap(after, dur)
		// the single-timeline walk must agree with the k-view walk
		if kv := EarliestGap(after, dur, View{Base: &s}); math.Float64bits(got) != math.Float64bits(kv) {
			t.Fatalf("EarliestGap(%g,%g) = %g, the k-view walk gives %g on %v", after, dur, got, kv, all)
		}
		if got < after {
			t.Fatalf("EarliestGap(%g,%g) = %g before after", after, dur, got)
		}
		// the returned window must be free
		for _, iv := range all {
			if iv.Start < got+dur && iv.End > got {
				t.Fatalf("EarliestGap(%g,%g) = %g conflicts with %v", after, dur, got, iv)
			}
		}
	})
}

func bad(x float64) bool {
	return x != x || x > 1e12 || x < -1e12 // NaN or magnitudes that overflow the test
}
