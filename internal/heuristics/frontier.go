package heuristics

import (
	"slices"
)

// This file holds DLS's whole-frontier scan: at every step DLS maximizes a
// dynamic level over every (ready task, processor) pair. The scan bounds
// every pair's start without probing (startBounds, the bound bestEFT
// prunes on), probes only the pairs whose bound can still win, and keeps
// nothing for the next step but the classes of interchangeable tasks
// (twins). See DESIGN.md, "Whole-frontier scans".

// dlBeats reports whether dynamic level d of pair (v, p) beats dynamic
// level e of pair (u, q) under DLS's total order (DL desc, task asc,
// processor asc).
func dlBeats(d float64, v, p int, e float64, u, q int) bool {
	return d > e || (d == e && (v < u || (v == u && p < q)))
}

// dlsStep returns DLS's pick among the given ready tasks: the pair (v, p)
// with the greatest dynamic level DL(v,p) = sl[v] − start + (w(v)·ef −
// w(v)·t_p) under (DL desc, task asc, processor asc), and its placement,
// stashed in the probe buffer. It bounds every pair's DL from above with
// the start bound (startBounds), probes the pair with the greatest bound
// first, as the seed, and then, in task and processor order, every other
// pair whose bound can still beat the incumbent. A pair whose bound cannot
// beat it cannot be the argmax, so the pick is the full scan's: fl(sl − x)
// only falls as x grows, and adding Δ keeps the order. The winner is
// committed from its stash, without a second probe.
//
// No bound or start outlives the step: a commit can lower a pair's start
// (TestFrontierBoundAnomaly), so a start seen at an earlier step bounds
// nothing, and each step bounds every pair afresh from the sender releases.
func (s *state) dlsStep(tasks []int, sl []float64, ef float64) (int, placement) {
	np := s.pl.NumProcs()
	dl := s.scratchBounds(len(tasks) * np) // dl[i*np+p]: the DL bound of (tasks[i], p)
	seed := 0
	for i, v := range tasks {
		row := dl[i*np : (i+1)*np]
		s.startBounds(row, v)
		for p, start := range row {
			row[p] = s.dynLevel(sl, ef, v, p, start)
			if dlBeats(row[p], v, p, dl[seed], tasks[seed/np], seed%np) {
				seed = i*np + p
			}
		}
	}
	b := s.buf()
	bestV := tasks[seed/np]
	best := s.probe(bestV, seed%np)
	bestDL := s.dynLevel(sl, ef, bestV, best.proc, best.start)
	stashed := false // the seed's comms may stay in probe scratch while no probe follows
	for i, v := range tasks {
		var preds []predInfo
		havePreds := false
		for p, bound := range dl[i*np : (i+1)*np] {
			if i*np+p == seed || !dlBeats(bound, v, p, bestDL, bestV, best.proc) {
				continue
			}
			if !stashed {
				best, stashed = stashPlacement(&b.best, best), true
			}
			if !havePreds {
				preds, havePreds = s.preds(v), true
			}
			pl, _ := s.probeAgainst(b, v, p, preds, nil, 0)
			if d := s.dynLevel(sl, ef, v, p, pl.start); dlBeats(d, v, p, bestDL, bestV, best.proc) {
				bestV, bestDL, best = v, d, stashPlacement(&b.best, pl)
			}
		}
	}
	return bestV, best
}

// dynLevel returns the dynamic level of task v starting at start on
// processor p.
func (s *state) dynLevel(sl []float64, ef float64, v, p int, start float64) float64 {
	w := s.g.Weight(v)
	return sl[v] - start + (w*ef - s.pl.ExecTime(w, p))
}

// twins holds DLS's classes of interchangeable tasks (admit): next[v] is
// the member after v in its class, in ascending id order, or -1; heads and
// predArena are the scratch of one release batch.
type twins struct {
	next      []int32
	heads     []twinHead
	predArena []predInfo
}

// twinHead is the lowest-id member v of one class found in a release
// batch: tail is the class's last member so far, and predArena[off:off+n]
// v's predecessor list (n < 0: not gathered yet).
type twinHead struct {
	v, tail int32
	off, n  int32
}

// newTwins returns the class chains for a graph of n tasks. Entries are
// written when their task is admitted, so they need no initial value.
func newTwins(n int) *twins {
	return &twins{next: make([]int32, n)}
}

// admit makes a release batch ready for DLS's scan. Tasks with the same
// weight, static level and predecessor list — (processor, finish, data)
// in probe order — are interchangeable: a probe of one on any processor is
// the probe of the other, so both have the same DL on every processor, and
// under the (DL desc, task asc, processor asc) order only the lowest-id
// member of such a class can be the argmax. admit pushes that member alone
// and chains the others behind it in ascending id order (next), so the
// scan reads one row per class and committing a member makes the next one
// ready. Classes are found within the batch only, comparing weight and
// static level before predecessor lists; the batch is sorted in place.
func (tw *twins) admit(s *state, ready *readyList, sl []float64, batch []int) {
	slices.Sort(batch)
	heads, arena := tw.heads[:0], tw.predArena[:0]
	for _, u := range batch {
		tw.next[u] = -1
		w := s.g.Weight(u)
		off, n := int32(0), int32(-1)
		joined := false
		for i := range heads {
			h := &heads[i]
			if s.g.Weight(int(h.v)) != w || sl[h.v] != sl[u] {
				continue
			}
			if h.n < 0 {
				h.off = int32(len(arena))
				arena = s.predsInto(arena, int(h.v))
				h.n = int32(len(arena)) - h.off
			}
			if n < 0 {
				off = int32(len(arena))
				arena = s.predsInto(arena, u)
				n = int32(len(arena)) - off
			}
			if samePreds(arena[h.off:h.off+h.n], arena[off:off+n]) {
				tw.next[h.tail] = int32(u)
				h.tail = int32(u)
				joined = true
				break
			}
		}
		if !joined {
			heads = append(heads, twinHead{v: int32(u), tail: int32(u), off: off, n: n})
			ready.push(u)
		}
	}
	tw.heads, tw.predArena = heads, arena
}

// samePreds reports whether two predecessor lists match in (processor,
// finish, data), element by element: the probe inputs of a task.
func samePreds(a, b []predInfo) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].proc != b[i].proc || a[i].finish != b[i].finish || a[i].data != b[i].data {
			return false
		}
	}
	return true
}
