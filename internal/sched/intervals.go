// Package sched provides the schedule substrate shared by every heuristic:
// busy-interval timelines with insertion-based gap search, the schedule
// record (task events plus multi-hop communication events), and validators
// that check a schedule against any of the five communication models — the
// classical macro-dataflow model, the paper's bi-directional one-port
// model, and the uni-port / no-overlap / link-contention variants of
// §2.2-2.3.
package sched

import (
	"fmt"
	"math"
	"sort"
)

// Interval is a half-open busy period [Start, End). Zero-length intervals
// are permitted and never conflict with anything.
type Interval struct {
	Start, End float64
}

// Intervals is a set of non-overlapping busy intervals kept sorted by start
// time; adjacent intervals are merged. It is the timeline of one resource:
// a processor's compute unit, its send port, or its receive port.
//
// The zero value is an empty, ready-to-use timeline.
type Intervals struct {
	iv []Interval
}

// Len returns the number of maximal busy intervals.
func (s *Intervals) Len() int { return len(s.iv) }

// All returns a copy of the busy intervals in order.
func (s *Intervals) All() []Interval { return append([]Interval(nil), s.iv...) }

// Add inserts the busy period [start, end), merging it with any overlapping
// or touching intervals. Adding an empty or inverted interval is a no-op for
// end <= start.
//
// Timelines grow mostly monotonically during list scheduling (each commit
// lands at or after the last reservation), so the common cases — append
// after the tail, or merge into the tail — are handled in O(1) before
// falling back to the general binary-search insertion.
func (s *Intervals) Add(start, end float64) {
	if end <= start {
		return
	}
	if n := len(s.iv); n == 0 || start > s.iv[n-1].End {
		s.iv = append(s.iv, Interval{Start: start, End: end})
		return
	} else if start >= s.iv[n-1].Start {
		// touches or overlaps only the tail: intervals are maximal and
		// separated, so everything before iv[n-1] ends strictly before
		// iv[n-1].Start <= start and cannot merge.
		if end > s.iv[n-1].End {
			s.iv[n-1].End = end
		}
		return
	}
	// find the insertion window: all intervals with End >= start can merge
	lo := sort.Search(len(s.iv), func(i int) bool { return s.iv[i].End >= start })
	hi := lo
	for hi < len(s.iv) && s.iv[hi].Start <= end {
		hi++
	}
	if lo == hi {
		// no overlap: plain insert
		s.iv = append(s.iv, Interval{})
		copy(s.iv[lo+1:], s.iv[lo:])
		s.iv[lo] = Interval{Start: start, End: end}
		return
	}
	merged := Interval{Start: math.Min(start, s.iv[lo].Start), End: math.Max(end, s.iv[hi-1].End)}
	s.iv[lo] = merged
	s.iv = append(s.iv[:lo+1], s.iv[hi:]...)
}

// Busy reports whether the point t lies strictly inside a busy interval.
func (s *Intervals) Busy(t float64) bool {
	i := sort.Search(len(s.iv), func(i int) bool { return s.iv[i].End > t })
	return i < len(s.iv) && s.iv[i].Start < t
}

// EarliestGap returns the earliest time t >= after such that [t, t+dur) is
// entirely free. This is the insertion ("gap") policy: holes between
// existing busy periods are used when long enough.
//
// It is the single-timeline walk: a binary search for the first interval
// ending after `after`, then one step per interval that starts before the
// window ends. Intervals are sorted, disjoint and merged when touching, so
// every interval after a conflict ends past the window's new start, and the
// result is bit for bit the k-view walk's on View{Base: s}.
func (s *Intervals) EarliestGap(after, dur float64) float64 {
	iv := s.iv
	lo, hi := 0, len(iv)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if iv[m].End > after {
			hi = m
		} else {
			lo = m + 1
		}
	}
	t := after
	for j := lo; j < len(iv) && iv[j].Start < t+dur; j++ {
		t = iv[j].End
	}
	return t
}

// LastEnd returns the end of the last busy interval, or 0 when empty. It is
// the horizon an append-only (non-insertion) scheduling policy builds from.
func (s *Intervals) LastEnd() float64 {
	if len(s.iv) == 0 {
		return 0
	}
	return s.iv[len(s.iv)-1].End
}

// TotalBusy returns the sum of busy interval lengths.
func (s *Intervals) TotalBusy() float64 {
	var total float64
	for _, iv := range s.iv {
		total += iv.End - iv.Start
	}
	return total
}

// Clone returns an independent copy of the timeline.
func (s *Intervals) Clone() *Intervals {
	return &Intervals{iv: append([]Interval(nil), s.iv...)}
}

// CloneUsing returns a copy of s whose storage is carved from *arena. The
// carved slice is capacity-limited, so a later Add on the copy reallocates
// instead of writing into a neighbour's carve. Cloning a whole scheduler
// state this way (one arena sized to the total busy count) costs one
// allocation instead of one per timeline — the branch-and-bound search
// clones thousands of states, which made per-timeline clones its hot spot.
func (s *Intervals) CloneUsing(arena *[]Interval) Intervals {
	n0 := len(*arena)
	*arena = append(*arena, s.iv...)
	a := *arena
	return Intervals{iv: a[n0:len(a):len(a)]}
}

// Reset empties the timeline, retaining capacity.
func (s *Intervals) Reset() { s.iv = s.iv[:0] }

// View is one resource timeline as seen by a gap search: the committed busy
// set plus a small sorted overlay of tentative intervals. Overlays let a
// heuristic probe "what if I also placed these communications here?" for
// each candidate processor without copying whole timelines.
type View struct {
	Base  *Intervals // may be nil (treated as empty)
	Extra []Interval // tentative busy periods, sorted by Start, non-overlapping
}

// EarliestGap returns the earliest t >= after such that the window
// [t, t+dur) is simultaneously free in every view. A communication, for
// example, needs a common free window on the sender's send port and the
// receiver's receive port; that is exactly a two-view search.
//
// dur == 0 windows conflict only when strictly inside a busy period, so
// zero-size messages schedule instantly at their ready time.
//
// The search is a k-way merged walk: every view keeps an index into its
// committed busy list and its overlay, and since the candidate time t only
// ever increases, each index advances monotonically. One call is therefore
// O(k·log n) for the initial positioning plus O(total intervals walked),
// instead of a fresh binary search per conflict.
func EarliestGap(after, dur float64, views ...View) float64 {
	// index storage: stack-allocated for the common arities (<= 4 views)
	var biArr, eiArr [4]int
	bi, ei := biArr[:], eiArr[:]
	if len(views) > 4 {
		bi = make([]int, len(views))
		ei = make([]int, len(views))
	}
	for i := range views {
		v := &views[i]
		if v.Base == nil {
			continue
		}
		iv := v.Base.iv
		bi[i] = sort.Search(len(iv), func(j int) bool { return iv[j].End > after })
	}
	t := after
	for {
		moved := false
		for i := range views {
			v := &views[i]
			if v.Base != nil {
				iv := v.Base.iv
				j := bi[i]
				for j < len(iv) && iv[j].End <= t {
					j++
				}
				bi[i] = j
				// A zero-length window still conflicts when it sits strictly
				// inside a busy interval: Start < t and End > t implies
				// Start < t+0.
				if j < len(iv) && iv[j].Start < t+dur && iv[j].End > t {
					t = iv[j].End
					moved = true
				}
			}
			j := ei[i]
			for j < len(v.Extra) && v.Extra[j].End <= t {
				j++
			}
			ei[i] = j
			if j < len(v.Extra) && v.Extra[j].Start < t+dur && v.Extra[j].End > t {
				t = v.Extra[j].End
				moved = true
			}
		}
		if !moved {
			return t
		}
	}
}

// AddExtra inserts [start, end) into a sorted overlay slice, keeping it
// sorted by Start. Overlays are tiny (a handful of tentative messages), so
// linear insertion is appropriate.
func AddExtra(extra []Interval, start, end float64) []Interval {
	if end <= start {
		return extra
	}
	pos := len(extra)
	for i, e := range extra {
		if e.Start > start {
			pos = i
			break
		}
	}
	extra = append(extra, Interval{})
	copy(extra[pos+1:], extra[pos:])
	extra[pos] = Interval{Start: start, End: end}
	return extra
}

// String renders the busy set, mainly for test failure messages.
func (s *Intervals) String() string {
	out := "["
	for i, iv := range s.iv {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%g..%g", iv.Start, iv.End)
	}
	return out + "]"
}
