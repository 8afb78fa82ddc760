package heuristics

import (
	"context"
	"errors"
	"runtime"
)

// ErrCanceled marks a run aborted because its Tuning.Ctx expired (deadline
// exceeded or canceled). Callers detect it with errors.Is; the wrapped
// error carries the context's own verdict.
var ErrCanceled = errors.New("heuristics: run canceled")

// runCanceled carries a context expiry from state.commit — the per-task
// cancellation point — up to the ByNameTuned boundary, where it is
// recovered into an ErrCanceled error. It is a distinct type so genuine
// probe-code panics are never mistaken for cancellations.
type runCanceled struct{ err error }

// Tuning carries per-run scheduler settings. They are scoped to a single
// scheduler run, so concurrent schedulers (a long-running service) never
// retune each other; the zero value (and a nil *Tuning) runs with the
// defaults documented on each field.
//
// A Tuning must not be shared by two runs at the same time when it carries
// a Scratch: the scratch buffers are handed to the running state and only
// returned when the run completes.
type Tuning struct {
	// ProbeParallelism caps the candidate-probe fan-out of this run
	// (1 forces the sequential reference path). 0 resolves to
	// min(GOMAXPROCS, 8) when the run starts.
	ProbeParallelism int

	// Scratch, when non-nil, donates reusable probe buffers to the run and
	// receives them back when the run finishes, so a worker loop scheduling
	// many graphs on the same platform stays near-zero-alloc in steady
	// state instead of re-growing probe scratch per request.
	Scratch *Scratch

	// Ctx, when non-nil, bounds the run: its expiry (deadline or cancel)
	// aborts the run at the next task commit — once per placement, on the
	// dispatching goroutine between probe fan-out barriers, so the abort
	// is quiescent and the Scratch is reclaimed normally. Funcs obtained
	// through ByName/ByNameTuned then return an error satisfying
	// errors.Is(err, ErrCanceled). The check is one atomic load per
	// commit; nil keeps runs unbounded (the historical behaviour).
	Ctx context.Context
}

// Scratch owns the probe scratch memory (per-worker probe buffers, the
// predecessor buffer, the parallel-reduction slots, bestEFT's candidate
// bounds and sender releases and, for the heuristics that use one, the
// frontier-probe engine)
// that a scheduler state grows during a run. Reusing one Scratch across
// successive runs on platforms of the same size avoids re-allocating all of
// it every time.
// A Scratch may only feed one run at a time; see Tuning.
type Scratch struct {
	procs    int // processor count the buffers are sized for
	bufs     []*probeBuf
	predBuf  []predInfo
	results  []workerBest
	bounds   []float64
	live     []int
	releases []float64
	frontier *frontier
}

// NewScratch returns an empty Scratch; buffers are grown by the first run
// that uses it and recycled by every run after that.
func NewScratch() *Scratch { return &Scratch{} }

// lend moves the scratch buffers into a freshly created state. Ownership
// transfers: the Scratch is emptied so that a second state created while
// the first is still running can never alias the same buffers (it simply
// grows fresh ones). Buffers sized for a different processor count are
// dropped — probeBuf slices are indexed by processor. The frontier engine
// and bestEFT's bounds and releases size themselves to any (graph,
// platform) pair, so they are always handed over.
func (sc *Scratch) lend(s *state) {
	if sc.procs == s.pl.NumProcs() && sc.bufs != nil {
		s.bufs = sc.bufs
		s.predBuf = sc.predBuf[:0]
		s.results = sc.results[:0]
	}
	s.bounds, s.live, s.releases = sc.bounds, sc.live, sc.releases
	s.fmem = sc.frontier
	sc.bufs, sc.predBuf, sc.results, sc.bounds, sc.live, sc.releases, sc.frontier = nil, nil, nil, nil, nil, nil, nil
}

// reclaim returns a finished state's (possibly grown) scratch buffers to
// the Tuning's Scratch. nil-safe on every level so runners can defer it
// unconditionally. Safe to call even on error paths: the state's buffers
// are no longer referenced once the run returns (committed schedules own
// copies of every hop).
func (t *Tuning) reclaim(s *state) {
	if t == nil || t.Scratch == nil || s == nil {
		return
	}
	sc := t.Scratch
	sc.procs = s.pl.NumProcs()
	sc.bufs = s.bufs
	sc.predBuf = s.predBuf
	sc.results = s.results
	sc.bounds, sc.live, sc.releases = s.bounds, s.live, s.releases
	// the run either attached the lent engine (s.frontier) or never touched
	// it (still parked in s.fmem); recover whichever is live, unbinding the
	// dead state so a pooled Scratch does not pin its timelines and schedule
	if s.frontier != nil {
		sc.frontier = s.frontier
	} else {
		sc.frontier = s.fmem
	}
	if sc.frontier != nil {
		sc.frontier.s = nil
	}
}

// runCtx returns the run's cancellation context, nil-safe.
func (t *Tuning) runCtx() context.Context {
	if t == nil {
		return nil
	}
	return t.Ctx
}

// par returns the run's probe parallelism: the Tuning's setting when
// positive, otherwise min(GOMAXPROCS, 8).
func (t *Tuning) par() int {
	if t != nil && t.ProbeParallelism > 0 {
		return t.ProbeParallelism
	}
	return min(runtime.GOMAXPROCS(0), 8)
}
