package sched

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddMergesOverlaps(t *testing.T) {
	cases := []struct {
		name string
		add  [][2]float64
		want []Interval
	}{
		{"disjoint", [][2]float64{{0, 1}, {2, 3}}, []Interval{{0, 1}, {2, 3}}},
		{"touching merge", [][2]float64{{0, 1}, {1, 2}}, []Interval{{0, 2}}},
		{"overlap merge", [][2]float64{{0, 2}, {1, 3}}, []Interval{{0, 3}}},
		{"containment", [][2]float64{{0, 10}, {2, 3}}, []Interval{{0, 10}}},
		{"bridge three", [][2]float64{{0, 1}, {4, 5}, {1, 4}}, []Interval{{0, 5}}},
		{"out of order", [][2]float64{{4, 5}, {0, 1}, {2, 3}}, []Interval{{0, 1}, {2, 3}, {4, 5}}},
		{"empty ignored", [][2]float64{{3, 3}, {5, 4}}, nil},
	}
	for _, c := range cases {
		var s Intervals
		for _, a := range c.add {
			s.Add(a[0], a[1])
		}
		got := s.All()
		if len(got) != len(c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
			continue
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%s: got %v, want %v", c.name, got, c.want)
			}
		}
	}
}

func TestBusy(t *testing.T) {
	var s Intervals
	s.Add(1, 3)
	s.Add(5, 7)
	cases := []struct {
		t    float64
		want bool
	}{
		{0, false}, {1, false}, {2, true}, {3, false}, {4, false}, {5, false}, {6, true}, {7, false}, {8, false},
	}
	for _, c := range cases {
		if got := s.Busy(c.t); got != c.want {
			t.Errorf("Busy(%g) = %v, want %v in %v", c.t, got, c.want, s.String())
		}
	}
}

func TestEarliestGapSingle(t *testing.T) {
	var s Intervals
	s.Add(2, 4)
	s.Add(6, 8)
	cases := []struct {
		after, dur, want float64
	}{
		{0, 1, 0},   // fits before everything
		{0, 2, 0},   // exactly fills [0,2)
		{0, 2.5, 8}, // too long for both holes, lands after everything
		{0, 2, 0},   // hole [0,2) exactly fits
		{4, 2, 4},   // hole [4,6) exactly fits a window of 2
		{3, 1, 4},   // after lands inside busy period
		{4, 2, 4},   // exact hole fit
		{7, 5, 8},   // tail
		{10, 1, 10}, // free region
		{0, 0, 0},   // zero duration at a free point
		{6.5, 0, 8}, // zero duration strictly inside busy -> pushed out
		{6, 0, 6},   // zero duration at busy start is fine (touching)
	}
	for _, c := range cases {
		if got := s.EarliestGap(c.after, c.dur); got != c.want {
			t.Errorf("EarliestGap(%g,%g) = %g, want %g in %v", c.after, c.dur, got, c.want, s.String())
		}
	}
}

func TestEarliestGapMultiView(t *testing.T) {
	var send, recv Intervals
	send.Add(0, 5)  // sender busy until 5
	recv.Add(6, 10) // receiver busy 6..10
	// need a window of 2 free on both: [5,6) too short, so 10
	got := EarliestGap(0, 2, View{Base: &send}, View{Base: &recv})
	if got != 10 {
		t.Errorf("EarliestGap = %g, want 10", got)
	}
	// window of 1 fits in [5,6)
	if got := EarliestGap(0, 1, View{Base: &send}, View{Base: &recv}); got != 5 {
		t.Errorf("EarliestGap = %g, want 5", got)
	}
}

func TestEarliestGapWithExtras(t *testing.T) {
	var base Intervals
	base.Add(0, 2)
	var extra []Interval
	extra = AddExtra(extra, 3, 5)
	extra = AddExtra(extra, 2, 3) // insert before, keeps sorted
	v := View{Base: &base, Extra: extra}
	if got := EarliestGap(0, 1, v); got != 5 {
		t.Errorf("EarliestGap = %g, want 5 (base [0,2) + extras [2,5))", got)
	}
	if got := EarliestGap(0, 0, v); got != 0 {
		t.Errorf("zero-dur EarliestGap = %g, want 0", got)
	}
}

func TestAddExtraKeepsOrder(t *testing.T) {
	var extra []Interval
	for _, iv := range [][2]float64{{5, 6}, {1, 2}, {3, 4}, {0, 0.5}} {
		extra = AddExtra(extra, iv[0], iv[1])
	}
	for i := 1; i < len(extra); i++ {
		if extra[i-1].Start > extra[i].Start {
			t.Fatalf("extras out of order: %v", extra)
		}
	}
	if len(extra) != 4 {
		t.Fatalf("len = %d, want 4", len(extra))
	}
	if got := AddExtra(extra, 9, 9); len(got) != 4 {
		t.Fatal("empty interval should be ignored")
	}
}

func TestCloneAndReset(t *testing.T) {
	var s Intervals
	s.Add(1, 2)
	c := s.Clone()
	c.Add(5, 6)
	if s.Len() != 1 || c.Len() != 2 {
		t.Fatalf("clone aliases original: %v vs %v", s.String(), c.String())
	}
	s.Reset()
	if s.Len() != 0 || s.TotalBusy() != 0 {
		t.Fatal("Reset did not empty the set")
	}
}

func TestTotalBusy(t *testing.T) {
	var s Intervals
	s.Add(0, 3)
	s.Add(10, 14)
	s.Add(2, 4) // extends first to [0,4)
	if got := s.TotalBusy(); got != 8 {
		t.Errorf("TotalBusy = %g, want 8", got)
	}
}

// referenceGap is a brute-force gap finder used to cross-check EarliestGap.
func referenceGap(busy []Interval, after, dur float64) float64 {
	conflicts := func(t float64) (float64, bool) {
		for _, iv := range busy {
			if iv.Start < t+dur && iv.End > t {
				return iv.End, true
			}
		}
		return 0, false
	}
	t := after
	for {
		end, c := conflicts(t)
		if !c {
			return t
		}
		t = end
	}
}

func TestPropertyEarliestGapMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var s Intervals
		var busy []Interval
		for i := 0; i < r.Intn(20); i++ {
			start := float64(r.Intn(50))
			end := start + float64(r.Intn(5))
			s.Add(start, end)
		}
		busy = s.All()
		for trial := 0; trial < 20; trial++ {
			after := float64(r.Intn(60))
			dur := float64(r.Intn(6))
			got := s.EarliestGap(after, dur)
			want := referenceGap(busy, after, dur)
			if got != want {
				t.Logf("seed=%d busy=%v after=%g dur=%g got=%g want=%g", seed, busy, after, dur, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyIntervalsInvariants(t *testing.T) {
	// after any Add sequence the set is sorted, non-overlapping, non-touching
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var s Intervals
		for i := 0; i < 100; i++ {
			start := r.Float64() * 100
			s.Add(start, start+r.Float64()*10)
		}
		all := s.All()
		for i := range all {
			if all[i].End <= all[i].Start {
				return false
			}
			if i > 0 && all[i-1].End >= all[i].Start {
				return false // overlapping or touching intervals must merge
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyGapResultIsFree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var a, b Intervals
		for i := 0; i < 15; i++ {
			s1 := float64(r.Intn(40))
			a.Add(s1, s1+float64(1+r.Intn(4)))
			s2 := float64(r.Intn(40))
			b.Add(s2, s2+float64(1+r.Intn(4)))
		}
		after := float64(r.Intn(30))
		dur := float64(1 + r.Intn(5))
		got := EarliestGap(after, dur, View{Base: &a}, View{Base: &b})
		if got < after {
			return false
		}
		// window must be free in both sets
		for _, s := range []*Intervals{&a, &b} {
			for _, iv := range s.All() {
				if iv.Start < got+dur && iv.End > got {
					return false
				}
			}
		}
		// minimality: got-0.5 (if >= after) must conflict somewhere
		if got > after {
			probe := got - 0.5
			conflict := false
			for _, s := range []*Intervals{&a, &b} {
				for _, iv := range s.All() {
					if iv.Start < probe+dur && iv.End > probe {
						conflict = true
					}
				}
			}
			if !conflict {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySingleTimelineWalk pins the single-timeline walk of
// (*Intervals).EarliestGap to the k-view walk on the same timeline alone,
// bit for bit. Timelines are random float intervals built with Add —
// overlapping, touching (an add starting at an existing end) and nested
// adds. Searches start before, inside, between and past the intervals, and
// exactly at their ends, for zero and positive durations.
func TestPropertySingleTimelineWalk(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var s Intervals
		for i := 0; i < r.Intn(24); i++ {
			start := r.Float64() * 100
			end := start + r.Float64()*8
			switch all := s.All(); {
			case len(all) > 0 && r.Intn(4) == 0: // touch an existing end
				start = all[r.Intn(len(all))].End
				end = start + r.Float64()*8
			case len(all) > 0 && r.Intn(4) == 0: // nest inside an interval
				iv := all[r.Intn(len(all))]
				start = iv.Start + (iv.End-iv.Start)*r.Float64()/2
				end = start + (iv.End-start)*r.Float64()
			}
			s.Add(start, end)
		}
		all := s.All()
		for trial := 0; trial < 40; trial++ {
			var after float64
			switch k := r.Intn(5); {
			case k == 0 || len(all) == 0: // anywhere, before and past included
				after = r.Float64()*130 - 15
			case k == 1: // inside an interval
				iv := all[r.Intn(len(all))]
				after = iv.Start + (iv.End-iv.Start)*r.Float64()
			case k == 2: // between two intervals
				i := r.Intn(len(all))
				next := all[i].End + 10
				if i+1 < len(all) {
					next = all[i+1].Start
				}
				after = all[i].End + (next-all[i].End)*r.Float64()
			case k == 3: // exactly at an end or a start
				iv := all[r.Intn(len(all))]
				after = iv.End
				if r.Intn(2) == 0 {
					after = iv.Start
				}
			default: // past the last interval
				after = s.LastEnd() + r.Float64()*5
			}
			dur := 0.0
			if r.Intn(3) > 0 {
				dur = r.Float64() * 12
			}
			got := s.EarliestGap(after, dur)
			want := EarliestGap(after, dur, View{Base: &s})
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Logf("seed=%d busy=%v after=%v dur=%v: single walk %v, k-view walk %v", seed, all, after, dur, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
