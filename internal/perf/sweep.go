package perf

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"

	"oneport/internal/exp"
	"oneport/internal/sched"
	"oneport/internal/service/sweep"
)

// sweepSpecs benchmarks the sharded sweep path: a fig8 figure sweep fed to
// one in-process Worker (the real /sweep/run handler `schedserve -worker`
// mounts) behind two listeners under work-stealing dispatch, merged and
// verified per op. Two variants:
//
//   - sweep-fig8-worksteal: a fresh Worker, so an empty cache, every op —
//     the wall clock of a cold sharded sweep, dominated by the scheduler
//     runs;
//   - sweep-fig8-rerun: the cache kept warm — the floor a repeated or
//     overlapping sweep pays, with every job a worker-side cache hit.
//
// The workers start lazily on first use so merely enumerating Specs() (the
// perf tests do) spins up no servers.
func sweepSpecs() []Spec {
	fig, err := exp.FigureByID("fig8")
	if err != nil {
		panic(err) // static table; cannot fail
	}
	sizes := []int{10, 20, 30, 40}
	jobs := sweep.FigureJobs(fig, "oneport", sizes)

	var once sync.Once
	var co *sweep.Coordinator
	var worker atomic.Value // http.Handler of the Worker both listeners serve
	fresh := func() { worker.Store(sweep.NewWorker(nil, nil).Handler()) }
	setup := func() {
		fresh()
		mount := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			worker.Load().(http.Handler).ServeHTTP(w, r)
		})
		w1 := httptest.NewServer(mount)
		w2 := httptest.NewServer(mount)
		co = &sweep.Coordinator{Workers: []string{w1.URL, w2.URL}}
	}
	runSweep := func(cold bool) (int, error) {
		once.Do(setup)
		if cold {
			fresh()
		}
		results, err := co.Run(context.Background(), nil, jobs)
		if err != nil {
			return 0, err
		}
		if _, err := sweep.MergeFigure(fig, sched.OnePort, results, len(jobs)); err != nil {
			return 0, err
		}
		return co.Stats.CacheHits, nil
	}
	return []Spec{
		{
			Name:      "sweep-fig8-worksteal",
			perOp:     float64(len(jobs)),
			perOpUnit: "jobs",
			work: func() (map[string]float64, error) {
				hits, err := runSweep(true)
				if err != nil {
					return nil, err
				}
				if hits != 0 {
					return nil, fmt.Errorf("perf: cold sweep reported %d cache hits", hits)
				}
				return nil, nil
			},
		},
		{
			Name:      "sweep-fig8-rerun",
			perOp:     float64(len(jobs)),
			perOpUnit: "jobs",
			work: func() (map[string]float64, error) {
				hits, err := runSweep(false)
				if err != nil {
					return nil, err
				}
				return map[string]float64{"cache_hits": float64(hits)}, nil
			},
		},
	}
}
