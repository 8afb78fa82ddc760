package sweep

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"oneport/internal/service/admit"
)

// Sweep traffic is the first class the scheduling service's brownout
// ladder sheds, and the worker surface enforces the same verdict: when a
// Worker has an admission controller (cmd/schedserve -worker -admission
// passes the service's), every inbound shard acquires ONE Background
// ticket for its summed job cost before any lane starts. A shed answers
// 503 with a numeric Retry-After, which the coordinator treats as
// backpressure — back off and retry — never as a worker fault (no breaker
// trip, no retirement).

// sweepTenant is the accounting bucket all sweep-shard traffic charges;
// it keeps fill load visible (and quotable) separately from API tenants.
const sweepTenant = "sweep"

// jobCost mirrors the service's cost model (task count × heuristic
// weight) for sweep jobs: a figure job runs the HEFT-vs-ILHA bundle at
// Size tasks, a B-sweep job one ILHA run.
func jobCost(j Job) float64 {
	n := float64(j.Size)
	if n < 1 {
		n = 1
	}
	if j.Kind == KindFigure {
		return n * 4
	}
	return n * 3
}

func shardCost(jobs []Job) float64 {
	total := 0.0
	for _, j := range jobs {
		total += jobCost(j)
	}
	return total
}

// admitShard gates one inbound shard: returns a release func when
// admitted (a no-op when the worker has no controller), or writes the
// 503 + Retry-After itself and returns ok=false.
func (wk *Worker) admitShard(w http.ResponseWriter, r *http.Request, jobs []Job) (func(), bool) {
	if wk.admission == nil {
		return func() {}, true
	}
	tk, err := wk.admission.Acquire(r.Context(), sweepTenant, admit.Background, shardCost(jobs))
	if err != nil {
		retry := 1
		var se *admit.ShedError
		if errors.As(err, &se) {
			if secs := int(math.Ceil(se.RetryAfter.Seconds())); secs > retry {
				retry = secs
			}
		}
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("sweep: shard shed: %w", err))
		return nil, false
	}
	return tk.Release, true
}

// maxWorkerBackoffs bounds how many consecutive 503s the coordinator
// absorbs for one chunk on one worker before falling back to the normal
// failover path (requeue elsewhere, retire the worker for this run).
const maxWorkerBackoffs = 10

// maxBackoffSleep caps one overload back-off sleep regardless of what
// Retry-After the worker advertised.
const maxBackoffSleep = 30 * time.Second

// backoff is the sleep before retrying a worker that answered 503: its
// Retry-After hint, clamped to [1s, maxBackoffSleep].
func backoff(retryAfter time.Duration) time.Duration {
	return min(max(retryAfter, time.Second), maxBackoffSleep)
}
