package heuristics

import (
	"context"
	"errors"
	"fmt"
)

// ErrCanceled marks a run aborted because its Tuning.Ctx expired (deadline
// exceeded or canceled). Callers detect it with errors.Is; the wrapped
// error carries the context's own verdict.
var ErrCanceled = errors.New("heuristics: run canceled")

// runCanceled carries a context expiry from state.commit — the per-task
// cancellation point — up to the entry point (ByNameTuned's Funcs,
// RunIncremental), where recoverCanceled turns it into an ErrCanceled
// error. It is a distinct type so genuine probe-code panics are never
// mistaken for cancellations.
type runCanceled struct{ err error }

// recoverCanceled, deferred by an entry point, turns a runCanceled panic
// into an ErrCanceled error in *err. Any other panic keeps propagating:
// the service's compute recovery owns those.
func recoverCanceled(err *error) {
	if r := recover(); r != nil {
		rc, ok := r.(runCanceled)
		if !ok {
			panic(r)
		}
		*err = fmt.Errorf("%w: %v", ErrCanceled, rc.err)
	}
}

// Tuning carries per-run scheduler settings. They are scoped to a single
// scheduler run, so concurrent schedulers (a long-running service) never
// retune each other; the zero value (and a nil *Tuning) runs with the
// defaults documented on each field.
//
// A Tuning must not be shared by two runs at the same time when it carries
// a Scratch: the scratch buffers are handed to the running state and only
// returned when the run completes.
type Tuning struct {
	// ProbeParallelism is ignored: every run probes on the calling
	// goroutine.
	//
	// Deprecated: nothing reads it. It stays so that callers which still
	// set it compile.
	ProbeParallelism int

	// Scratch, when non-nil, donates reusable probe buffers to the run and
	// receives them back when the run finishes, so a worker loop scheduling
	// many graphs on the same platform stays near-zero-alloc in steady
	// state instead of re-growing probe scratch per request.
	Scratch *Scratch

	// Ctx, when non-nil, bounds the run: its expiry (deadline or cancel)
	// aborts the run at the next task commit — once per placement, between
	// probes, so the abort leaves no probe half done and the Scratch is
	// reclaimed normally. Funcs obtained
	// through ByName/ByNameTuned then return an error satisfying
	// errors.Is(err, ErrCanceled). The check is one atomic load per
	// commit; nil keeps runs unbounded (the historical behaviour).
	Ctx context.Context
}

// Scratch owns the probe scratch memory (the probe buffer, the predecessor
// buffer, and the bounds and sender releases of the pruned scans) that a
// scheduler state grows during a run. Reusing one Scratch across
// successive runs, on platforms of any size, avoids re-allocating all of
// it every time.
// A Scratch may only feed one run at a time; see Tuning.
type Scratch struct {
	buf      *probeBuf
	predBuf  []predInfo
	bounds   []float64
	releases []float64
}

// NewScratch returns an empty Scratch; buffers are grown by the first run
// that uses it and recycled by every run after that.
func NewScratch() *Scratch { return &Scratch{} }

// lend moves the scratch buffers into a freshly created state. Ownership
// transfers: the Scratch is emptied so that a second state created while
// the first is still running can never alias the same buffers (it simply
// grows fresh ones). The probe buffer is fitted to the state's processor
// count — its overlays are indexed by processor; the other buffers size
// themselves to any (graph, platform) pair.
func (sc *Scratch) lend(s *state) {
	if sc.buf != nil {
		sc.buf.fit(s.pl.NumProcs())
	}
	s.pbuf, s.predBuf = sc.buf, sc.predBuf[:0]
	s.bounds, s.releases = sc.bounds, sc.releases
	sc.buf, sc.predBuf, sc.bounds, sc.releases = nil, nil, nil, nil
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
	sc.buf = s.pbuf
	sc.predBuf = s.predBuf
	sc.bounds, sc.releases = s.bounds, s.releases
}

// runCtx returns the run's cancellation context, nil-safe.
func (t *Tuning) runCtx() context.Context {
	if t == nil {
		return nil
	}
	return t.Ctx
}
