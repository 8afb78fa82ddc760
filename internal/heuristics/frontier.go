package heuristics

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"oneport/internal/sched"
)

// This file implements the frontier-probe engine: an incremental, cached
// evaluator of the (ready task × processor) probe matrix that the
// whole-frontier heuristics scan at every scheduling step. DLS maximizes a
// dynamic level over all pairs and the Exhaustive branch-and-bound expands
// every pair; before the engine each of them re-probed every pair from
// scratch at every step, an O(ready·procs) rescan per commit even though
// one commit only perturbs one processor's compute timeline, the
// ports/wires on the committed communication paths, and the placed task's
// successors.
//
// The engine caches each pair's probe *scores* (ready and start time, and a
// lower bound on every later start) and invalidates them with fine
// granularity:
//
//   - a per-processor compute-timeline stamp and a per-processor port stamp
//     (ports and incident wires), bumped for exactly the processors whose
//     resources a commit reserved under the run's communication model;
//   - a per-task predecessor stamp, bumped for every successor of the
//     committed task (its probe inputs now include a new placed pred);
//   - each cached entry records the stamp clock it was computed at and the
//     exact processor sets its probe read: the candidate's compute timeline
//     plus, model-dependent, the ports/wires (and for the no-overlap model
//     the compute timelines) of every processor on the communication path
//     from each remote predecessor.
//
// An entry is served only while none of the resources it read and the
// task's pred set changed since it was computed. Probes are pure functions
// of the committed timelines, so a cache hit is bit-for-bit the placement a
// fresh probe would produce, and schedules are byte-identical to the
// uncached implementations. The reductions use total orders — (score, task
// id, proc id) — that do not depend on evaluation order. See DESIGN.md,
// "Frontier engine".
type frontier struct {
	s  *state
	np int // processor count

	// maskW is the word count of one read-set mask: ceil(np/64). Platforms
	// with at most 64 processors use one word — the same single-mask walk as
	// before — and larger platforms get as many words as they need, so a
	// 100-proc frontier keeps fine-grained invalidation instead of the old
	// degrade-to-invalidate-on-any-commit fallback.
	maskW int

	// clock is the logical commit counter; stamps hold clock values. The
	// clock is monotone across runs of a reused (Scratch-lent) engine:
	// epoch is the clock value this run started at, and any entry or stamp
	// written before it — asOf < epoch — is dead history. That makes the
	// warm reset O(1): bumping the epoch invalidates every old entry and
	// outdates every old stamp at once, with no zeroing sweep over the
	// nodes×procs matrix.
	//
	// The three stamp arrays share one slab so the Exhaustive per-branch
	// clone is a single allocation: computeStamp = stamps[:np] (compute
	// timelines), portStamp = stamps[np:2np] (ports and incident wires),
	// predStamp = stamps[2np:] (per task: last gained a placed pred).
	clock  uint64
	epoch  uint64
	stamps []uint64

	// entries is the flat probe matrix, entries[v*np+p] for pair (v, p).
	// readsC/readsP hold the per-entry read-set masks, maskW words each, at
	// word offset (v*np+p)*maskW. Mask words are only read for entries
	// probed in the current run (asOf >= epoch), so stale words from a
	// previous run never need clearing.
	entries        []frontierEntry
	readsC, readsP []uint64

	// scan is the scan scratch. The DFS of the Exhaustive search runs
	// strictly sequentially, so every cloned state along one search shares
	// its root's scratch instead of growing its own.
	scan *frontierScan
}

// frontierEntry caches the scores of one (task, processor) probe. Scores are
// enough for every reduction the heuristics need (dynamic level and
// branch-and-bound pruning; a finish is start plus the task's execution
// time); only a winning pair's communication placement is materialized, by
// re-running that single probe. ready is the communication-determined
// earliest start, so an entry stale only in its compute timeline is
// refreshed by a single gap search instead of a probe. bound lower-bounds
// the start of every later probe of the pair (see startBound), which is
// what lets a scan dispose of a stale pair without probing it. The read-set
// masks live in the engine's readsC/readsP arenas. A bound-only entry
// (ready < 0, see rebound) holds a bound and no scores: it is never served
// and never fast-refreshed, and a probe of the pair overwrites it.
type frontierEntry struct {
	asOf  uint64 // clock the probe (or rebound) ran at; < epoch = never written this run
	ready float64
	start float64
	bound float64
}

// boundOnly reports whether the entry holds only a bound (rebound).
func (e *frontierEntry) boundOnly() bool { return e.ready < 0 }

// frontierScan is the reusable scratch of one engine scan, shared by every
// clone along one Exhaustive search.
type frontierScan struct {
	predArena []predInfo
	stale     []probePair // DLS: the staleFull pairs its bound pass visits
	free      []*frontier // recycled per-branch clones (Exhaustive)

	// DLS's classes of interchangeable tasks (admit): next[v] is the
	// member after v in its class, in ascending id order, or -1; heads is
	// the scratch of one release batch's classes
	next  []int32
	heads []twinHead
}

// twinHead is the lowest-id member v of one class found in a release
// batch: tail is the class's last member so far, and predArena[off:off+n]
// v's predecessor list (n < 0: not gathered yet).
type twinHead struct {
	v, tail int32
	off, n  int32
}

// resizeNext sizes the class chains for a graph of n tasks. Entries are
// written when their task is admitted, so old contents need no clearing.
func (sc *frontierScan) resizeNext(n int) {
	if cap(sc.next) < n {
		sc.next = make([]int32, n)
	}
	sc.next = sc.next[:n]
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
func (sc *frontierScan) admit(s *state, ready *readyList, sl []float64, batch []int) {
	slices.Sort(batch)
	heads, arena := sc.heads[:0], sc.predArena[:0]
	for _, u := range batch {
		sc.next[u] = -1
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
				sc.next[h.tail] = int32(u)
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
	sc.heads, sc.predArena = heads, arena
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

// probePair is one stale (task, processor) pair.
type probePair struct{ v, p int32 }

// attachFrontier creates (or, when the state carries lent scratch, revives)
// the frontier engine for st and hooks it into st.commit so every commit
// bumps the invalidation stamps.
func attachFrontier(st *state) *frontier {
	f := st.fmem
	st.fmem = nil
	if f == nil {
		f = &frontier{}
	}
	f.resetFor(st)
	st.frontier = f
	return f
}

// resetFor rebinds the engine to a state. A reused (Scratch-lent) engine
// whose arrays still fit resets in O(1): the clock keeps counting across
// runs, so advancing the epoch past every previously written clock value
// invalidates all old entries and outdates all old stamps without touching
// them — the per-request cost of warming an engine across service requests
// is a few slice reslices, not a nodes×procs zeroing sweep. Arrays that no
// longer fit are reallocated (fresh zeroes sit below the epoch too).
func (f *frontier) resetFor(st *state) {
	f.s = st
	f.np = st.pl.NumProcs()
	f.maskW = (f.np + 63) / 64
	f.epoch = f.clock + 1
	f.clock = f.epoch
	f.stamps = resizeU64(f.stamps, 2*f.np+st.g.NumNodes())
	n := st.g.NumNodes() * f.np
	if cap(f.entries) < n {
		f.entries = make([]frontierEntry, n)
	} else {
		f.entries = f.entries[:n]
	}
	f.readsC = resizeU64(f.readsC, n*f.maskW)
	f.readsP = resizeU64(f.readsP, n*f.maskW)
	if f.scan == nil {
		f.scan = &frontierScan{}
	}
}

// resizeU64 reslices s to n words, reallocating only when the capacity is
// exceeded. Contents are NOT zeroed: every consumer treats values written
// before the engine's epoch as absent.
func resizeU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func (f *frontier) computeStamp() []uint64 { return f.stamps[:f.np] }
func (f *frontier) portStamp() []uint64    { return f.stamps[f.np : 2*f.np] }
func (f *frontier) predStamp() []uint64    { return f.stamps[2*f.np:] }

// cloneFor deep-copies the engine for a cloned state (the Exhaustive search
// clones the scheduler state per branch; inheriting the parent's cache lets
// a child re-probe only the pairs its one extra commit invalidated). The
// scan scratch is shared, not copied: the search is sequential, so at most
// one scan is live at a time. Clones come from (and return to, via recycle)
// the scan's freelist, so a deep DFS allocates a handful of clones total.
func (f *frontier) cloneFor(c *state) *frontier {
	var nf *frontier
	if n := len(f.scan.free); n > 0 {
		nf = f.scan.free[n-1]
		f.scan.free = f.scan.free[:n-1]
	} else {
		nf = &frontier{}
	}
	nf.s = c
	nf.np = f.np
	nf.maskW = f.maskW
	nf.clock = f.clock
	nf.epoch = f.epoch
	nf.stamps = append(nf.stamps[:0], f.stamps...)
	nf.entries = append(nf.entries[:0], f.entries...)
	nf.readsC = append(nf.readsC[:0], f.readsC...)
	nf.readsP = append(nf.readsP[:0], f.readsP...)
	nf.scan = f.scan
	return nf
}

// recycle returns a no-longer-referenced clone's storage to the freelist.
// The caller must guarantee the clone's state is dead.
func (sc *frontierScan) recycle(f *frontier) {
	f.s = nil
	sc.free = append(sc.free, f)
}

// onCommit is called by state.commit after the placement's reservations are
// applied: it advances the clock and stamps exactly the resources the
// commit reserved — the computing processor's compute timeline, the
// port/wire stamps of both endpoints of every communication hop under the
// port models (plus their compute stamps under the no-overlap model), and
// the pred stamp of every successor of the placed task. MacroDataflow
// communications reserve no timeline at all, so there only the compute
// stamp moves.
func (f *frontier) onCommit(v int, pl placement) {
	f.clock++
	c := f.clock
	f.computeStamp()[pl.proc] = c
	if f.s.model != sched.MacroDataflow {
		ps := f.portStamp()
		cs := f.computeStamp()
		noOverlap := f.s.model == sched.OnePortNoOverlap
		for i := range pl.comms {
			for _, h := range pl.comms[i].Hops {
				ps[h.FromProc] = c
				ps[h.ToProc] = c
				if noOverlap {
					cs[h.FromProc] = c
					cs[h.ToProc] = c
				}
			}
		}
	}
	preds := f.predStamp()
	for _, a := range f.s.g.Succ(v) {
		preds[a.Node] = c
	}
}

// Staleness classes of a cached entry.
const (
	staleNone    = iota // entry is valid as is
	staleCompute        // only the candidate's compute timeline changed
	staleFull           // a port/wire, a pred, or (no-overlap) a path compute changed
)

// staleKind classifies the entry of pair (v, p). staleNone entries are
// served directly. staleCompute entries — the task's pred set and every port
// the probe read are untouched, only the candidate processor's own compute
// timeline moved — keep their communication layout: the probe's ready time
// still holds, and a single compute-gap search restores the scores
// (fastRefresh). Everything else needs a full re-probe. Under
// OnePortNoOverlap communication placement itself reads compute timelines,
// so there readsC beyond the candidate forces staleFull, never staleCompute.
// A bound-only entry has no scores to serve or refresh: always staleFull.
func (f *frontier) staleKind(v, p int, e *frontierEntry) int {
	if e.asOf < f.epoch || e.boundOnly() || f.predStamp()[v] > e.asOf {
		return staleFull
	}
	base := (v*f.np + p) * f.maskW
	ps := f.portStamp()
	for wi := 0; wi < f.maskW; wi++ {
		for m := f.readsP[base+wi]; m != 0; m &= m - 1 {
			if ps[wi<<6+bits.TrailingZeros64(m)] > e.asOf {
				return staleFull
			}
		}
	}
	cs := f.computeStamp()
	kind := staleNone
	multi := -1 // lazily computed: does readsC hold more than one processor?
	for wi := 0; wi < f.maskW; wi++ {
		for m := f.readsC[base+wi]; m != 0; m &= m - 1 {
			q := wi<<6 + bits.TrailingZeros64(m)
			if cs[q] > e.asOf {
				if multi < 0 {
					multi = 0
					total := 0
					for wj := 0; wj < f.maskW; wj++ {
						total += bits.OnesCount64(f.readsC[base+wj])
					}
					if total > 1 {
						multi = 1
					}
				}
				if multi == 1 {
					// more than one compute timeline read (no-overlap model):
					// the communication layout may shift, re-probe fully
					return staleFull
				}
				kind = staleCompute
			}
		}
	}
	return kind
}

// valid reports whether the entry of pair (v, p) may be served as is.
func (f *frontier) valid(v, p int) bool {
	return f.staleKind(v, p, &f.entries[v*f.np+p]) == staleNone
}

// boundStart returns a sound lower bound on the start a fresh probe of the
// pair backing e would return: the bound recorded when e was written in
// this run (startBound or rebound), else 0 — an entry from before the
// epoch scored a different run and bounds nothing, and 0 lower-bounds
// every start. It is not the cached start: a stale start is no bound at
// all (see startBound). Pruning consumers (the DLS bound pass, the
// Exhaustive prune) must read stale entries through these helpers, and a
// pair that survives the bound is judged on its exact, refreshed start.
func (f *frontier) boundStart(e *frontierEntry) float64 {
	if e.asOf >= f.epoch {
		return e.bound
	}
	return 0
}

// boundFinish is boundStart for the finish of task v.
func (f *frontier) boundFinish(v, p int, e *frontierEntry) float64 {
	return f.boundStart(e) + f.s.pl.ExecTime(f.s.g.Weight(v), p)
}

// rebound takes a fresh start bound for the stale pair (v, p) of a ready
// task without probing it — state.earliestStart, from the predecessors'
// sender releases rel — and records it in the pair's entry as a bound-only
// entry: bound = max(boundStart(e), fresh), asOf = clock. It returns that
// bound. Both terms stay at or below every later fresh start: the recorded
// one by startBound's and rebound's contract, the fresh one because
// earliestStart never decreases as commits add intervals. The max reads
// the old bound through boundStart, because a bound recorded before the
// epoch belongs to another run. A later probe of the pair overwrites the
// entry with scores.
func (f *frontier) rebound(v, p int, preds []predInfo, rel []float64) float64 {
	e := &f.entries[v*f.np+p]
	fresh, _ := f.s.earliestStart(f.s.g.Weight(v), p, preds, rel)
	e.bound = max(f.boundStart(e), fresh)
	e.ready = -1
	e.asOf = f.clock
	return e.bound
}

// fastRefresh restores a staleCompute entry: the communication layout (and
// with it the ready time and the read sets) is untouched, so only the final
// compute-gap search reruns against the candidate's current timeline —
// exactly the tail of a probe, at a fraction of a probe's cost.
//
// The bound follows the start when the two were equal: bound = start means
// no compute gap opens between the ready bound and ready, and a timeline
// that only gains intervals never opens one, so the refreshed start is as
// sound a bound as the old one and tighter. A bound below the start (an
// entry whose messages pushed each other) keeps its recorded value, which
// stays sound because timelines only grow.
func (f *frontier) fastRefresh(v, p int, e *frontierEntry) {
	s := f.s
	start := s.startFrom(e.ready, s.pl.ExecTime(s.g.Weight(v), p), p)
	if e.bound == e.start {
		e.bound = start
	}
	e.start = start
	e.asOf = f.clock
}

// ensure makes every (task, processor) entry of the given ready tasks valid,
// re-probing the invalid pairs. Tasks must be ready (all preds placed).
func (f *frontier) ensure(tasks []int) { f.ensureFiltered(tasks, nil) }

// ensureFiltered is ensure with a pair filter: pairs for which keep returns
// false are left stale (the caller has proven, e.g. from the monotone lower
// bound a stale score provides, that it will never read them fresh).
func (f *frontier) ensureFiltered(tasks []int, keep func(v, p int, e *frontierEntry) bool) {
	for _, v := range tasks {
		row := f.row(v)
		var preds []predInfo
		havePreds := false
		for p := range row {
			switch f.staleKind(v, p, &row[p]) {
			case staleNone:
				continue
			case staleCompute:
				f.fastRefresh(v, p, &row[p])
				continue
			}
			if keep != nil && !keep(v, p, &row[p]) {
				continue
			}
			if !havePreds {
				preds, havePreds = f.s.preds(v), true
			}
			f.refresh(v, p, preds)
		}
	}
}

// record refreshes the entry of pair (v, p) from a probe just run with b.
func (f *frontier) record(b *probeBuf, v, p int, preds []predInfo, pl placement) {
	idx := v*f.np + p
	e := &f.entries[idx]
	e.ready = pl.ready
	e.start = pl.start
	e.bound = f.startBound(b, v, p, preds, pl)
	f.recordReads(idx*f.maskW, p, preds)
	e.asOf = f.clock
}

// lastHop is the release and duration of one message's last hop into the
// probed processor, a job of the port schedule startBound bounds.
type lastHop struct{ release, dur float64 }

// startBound returns a lower bound on the start of every later probe of
// (v, p), given the probe pl just run with buf b.
//
// A stale start is no such bound. Messages queue on ports in pred order, so
// a commit that delays a probe's first message can free the port for its
// second: with a committed reception busy over [10, 100), a first message
// taking [0, 2) pushes a 9-long second one released at 1 past the busy
// stretch to [100, 109); once a commit blocks the first message's sender
// until 9.5, the first lands at [100, 102) and the second fits at [1, 10),
// so the ready time falls from 109 to 102 (TestFrontierBoundAnomaly).
//
// The bound rests on each message alone instead: where the message would
// sit alone on the committed timelines only moves later as commits add
// intervals (a gap search never returns earlier on a superset of busy
// intervals or from a later release), and no later probe, with the other
// messages in the way, places it earlier than that. The probe records a
// lower bound on each last hop's alone start (probeBuf.alone): the hop's
// own start when no earlier message of the probe pushed the message, else
// the window an overlay first pushed it from (sched.EarliestGapMoved). Every
// last hop into p uses p's receive port (its single port under uni-port),
// so the messages' ready time is at least the earliest-release-first
// (Jackson) schedule of those last hops on one port; under link contention
// the last hops may use different wires, so only the latest alone arrival
// counts. The compute-gap search from that ready bound on the committed
// timeline is then the start bound; when nothing was pushed — the common
// case — it is the probe's own start.
func (f *frontier) startBound(b *probeBuf, v, p int, preds []predInfo, pl placement) float64 {
	if !b.anyMoved {
		return pl.start
	}
	s := f.s
	ready := 0.0
	for i := range preds {
		if preds[i].proc == p && preds[i].finish > ready {
			ready = preds[i].finish
		}
	}
	hops := b.lastHops[:0]
	for i := range pl.comms {
		c := &pl.comms[i]
		last := &c.Hops[len(c.Hops)-1]
		h := lastHop{release: b.alone[i], dur: s.pl.CommTime(c.Data, last.FromProc, last.ToProc)}
		ready = max(ready, h.release+h.dur)
		if h.dur > 0 { // an empty hop occupies no port time
			hops = append(hops, h)
		}
	}
	b.lastHops = hops
	if s.model != sched.LinkContention && len(hops) > 1 {
		slices.SortFunc(hops, func(x, y lastHop) int { return cmp.Compare(x.release, y.release) })
		t := 0.0
		for _, h := range hops {
			t = max(t, h.release) + h.dur
		}
		// a probe sums the same durations in another order; when that can
		// round differently, shave a relative 1e-9 off before trusting it
		if t > ready && !exactSums(hops) {
			t -= t * 1e-9
		}
		ready = max(ready, t)
	}
	if ready == pl.ready {
		// the probe's own start: nothing of its messages' compute overlay
		// (no-overlap) reaches past their arrivals, so the committed
		// timeline alone places the task there too
		return pl.start
	}
	return s.startFrom(ready, s.pl.ExecTime(s.g.Weight(v), p), p)
}

// exactSums reports whether every partial sum of the hops' releases and
// durations, added in any order, is exact in float64: all of them are
// multiples of 2^-10 and the largest release plus every duration stays
// below 2^43. The Jackson chain of startBound then equals its real-number
// value, which no port schedule in any order undercuts; the paper's
// platforms and testbeds, with integral and halved costs, always pass.
func exactSums(hops []lastHop) bool {
	maxRel, total := 0.0, 0.0
	for _, h := range hops {
		r, d := h.release*1024, h.dur*1024 // exact: scaling by a power of two
		if r != math.Trunc(r) || d != math.Trunc(d) {
			return false
		}
		maxRel = max(maxRel, h.release)
		total += h.dur
	}
	return maxRel+total < 1<<43
}

// refresh probes pair (v, p) with the state's probe buffer, records its
// entry and returns the full placement (comms in probe scratch: commit or
// copy it before the next probe on this state). It is the one-pair step of
// ensure, and the DLS bound pass calls it for the pairs its bounds cannot
// dispose of.
func (f *frontier) refresh(v, p int, preds []predInfo) placement {
	b := f.s.buf()
	pl, _ := f.s.probeAgainst(b, v, p, preds, nil, 0)
	f.record(b, v, p, preds, pl)
	return pl
}

// recordReads writes the resource sets a probe of (·, p) with the given
// placed predecessors read into the mask slot at word offset base. The
// compute mask always holds the candidate processor (the final gap search
// and the append-only horizon); remote predecessors add, per communication
// model: nothing for MacroDataflow (communications never consult a
// timeline), the ports of every processor on the path for the port models
// and LinkContention (a wire maps to the port stamps of its two endpoints),
// plus the path compute timelines for OnePortNoOverlap, whose hops block
// computation on both endpoints.
func (f *frontier) recordReads(base, p int, preds []predInfo) {
	rc := f.readsC[base : base+f.maskW]
	rp := f.readsP[base : base+f.maskW]
	for wi := range rp {
		rc[wi], rp[wi] = 0, 0
	}
	rc[p>>6] = uint64(1) << uint(p&63)
	if f.s.model == sched.MacroDataflow {
		return
	}
	for i := range preds {
		q := preds[i].proc
		if q == p {
			continue
		}
		rp[q>>6] |= uint64(1) << uint(q&63)
		for r := q; r != p; {
			r = f.s.hop(r, p)
			rp[r>>6] |= uint64(1) << uint(r&63)
		}
	}
	if f.s.model == sched.OnePortNoOverlap {
		for wi := range rc {
			rc[wi] |= rp[wi]
		}
	}
}

// row returns task v's entry row; entries are only meaningful after ensure
// (or per-pair refresh).
func (f *frontier) row(v int) []frontierEntry {
	return f.entries[v*f.np : (v+1)*f.np]
}

// placementFor materializes the full placement of one (typically winning)
// pair by re-running its probe. Probes are pure, so the result carries
// exactly the scores the cached entry holds. The placement's comms live in
// the state's probe scratch: commit (or copy) it before the next probe on
// this state.
func (f *frontier) placementFor(v, p int) placement {
	return f.s.probe(v, p)
}
