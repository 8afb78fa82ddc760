package sweep

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"oneport/internal/exp"
	"oneport/internal/platform"
	"oneport/internal/sched"
	"oneport/internal/service/breaker"
)

// twoWorkers mounts one in-process Worker (the real /sweep/run handler,
// exactly what `schedserve -worker` mounts) behind two listeners and
// returns a coordinator over both. The two lanes share one result cache,
// as two processes never do; TestDistinctWorkersShareNoHits pins the
// separate-worker case.
func twoWorkers(t *testing.T) *Coordinator {
	t.Helper()
	h := NewWorker(nil, nil).Handler()
	w1 := httptest.NewServer(h)
	t.Cleanup(w1.Close)
	w2 := httptest.NewServer(h)
	t.Cleanup(w2.Close)
	return &Coordinator{Workers: []string{w1.URL, w2.URL}}
}

// TestShardedFigureMatchesSingleProcess is the acceptance criterion: a
// figure sweep sharded across two worker processes merges to exactly the
// numbers the single-process exp.Run (cmd/experiments) produces.
func TestShardedFigureMatchesSingleProcess(t *testing.T) {
	fig, err := exp.FigureByID("fig8")
	if err != nil {
		t.Fatal(err)
	}
	sizes := exp.QuickSizes()
	pl := platform.Paper()

	want, err := exp.Run(fig, pl, sched.OnePort, sizes)
	if err != nil {
		t.Fatal(err)
	}

	co := twoWorkers(t)
	jobs := FigureJobs(fig, "oneport", sizes)
	results, err := co.Run(context.Background(), nil, jobs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MergeFigure(fig, sched.OnePort, results, len(jobs))
	if err != nil {
		t.Fatal(err)
	}

	if len(got.Points) != len(want.Points) {
		t.Fatalf("%d points, want %d", len(got.Points), len(want.Points))
	}
	for i := range want.Points {
		if got.Points[i] != want.Points[i] {
			t.Fatalf("point %d differs:\n got %+v\nwant %+v", i, got.Points[i], want.Points[i])
		}
	}
	if got.Table() != want.Table() {
		t.Fatal("rendered tables differ")
	}
}

// TestShardedBSweepMatchesSingleProcess shards a B-sweep and compares to
// the in-process exp.BSweep.
func TestShardedBSweepMatchesSingleProcess(t *testing.T) {
	pl := platform.Paper()
	bs := []int{1, 2, 4, 7, 10, 20, 38}
	want, err := exp.BSweep("lu", 20, pl, sched.OnePort, bs)
	if err != nil {
		t.Fatal(err)
	}

	co := twoWorkers(t)
	jobs := BSweepJobs("lu", 20, "oneport", 0, bs)
	results, err := co.Run(context.Background(), nil, jobs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MergeBSweep(results, len(jobs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d entries, want %d", len(got), len(want))
	}
	for b, sp := range want {
		if got[b] != sp {
			t.Fatalf("B=%d: %g vs %g", b, got[b], sp)
		}
	}
}

// TestCoordinatorFailover kills one worker: the sweep must still complete
// (the dead worker's shard fails over to the live one) and merge to the
// same series.
func TestCoordinatorFailover(t *testing.T) {
	fig, err := exp.FigureByID("fig7")
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{20, 30, 40}
	pl := platform.Paper()
	want, err := exp.Run(fig, pl, sched.OnePort, sizes)
	if err != nil {
		t.Fatal(err)
	}

	live := httptest.NewServer(NewWorker(nil, nil).Handler())
	defer live.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "worker on fire", http.StatusInternalServerError)
	}))
	defer dead.Close()

	co := &Coordinator{Workers: []string{dead.URL, live.URL}}
	jobs := FigureJobs(fig, "oneport", sizes)
	results, err := co.Run(context.Background(), nil, jobs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MergeFigure(fig, sched.OnePort, results, len(jobs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Points {
		if got.Points[i] != want.Points[i] {
			t.Fatalf("point %d differs after failover", i)
		}
	}
}

// TestCoordinatorAllWorkersDown: when every worker rejects a shard the
// sweep fails with the underlying error, not a bogus partial merge.
func TestCoordinatorAllWorkersDown(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "nope", http.StatusInternalServerError)
	}))
	defer dead.Close()
	co := &Coordinator{Workers: []string{dead.URL}}
	fig, _ := exp.FigureByID("fig7")
	if _, err := co.Run(context.Background(), nil, FigureJobs(fig, "oneport", []int{20})); err == nil {
		t.Fatal("want error when every worker is down")
	}
}

// TestCoordinator4xxKeepsBreakerClosed: a worker that refuses a shard with
// a 400 is alive and answering — the chunk fails over and the worker
// retires from this run, but its circuit breaker stays closed.
func TestCoordinator4xxKeepsBreakerClosed(t *testing.T) {
	refusing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writeError(w, http.StatusBadRequest, errors.New("sweep: drill refusal"))
	}))
	defer refusing.Close()
	live := httptest.NewServer(NewWorker(nil, nil).Handler())
	defer live.Close()

	br := breaker.NewSet(breaker.Config{Jitter: -1})
	co := &Coordinator{Workers: []string{refusing.URL, live.URL}, Breakers: br}
	jobs := BSweepJobs("lu", 20, "oneport", 0, []int{2, 4, 7})
	if _, err := co.Run(context.Background(), nil, jobs); err != nil {
		t.Fatal(err)
	}
	if got := br.Get(refusing.URL).CurrentState(time.Now()); got != breaker.Closed {
		t.Fatalf("breaker %v after a worker 400, want closed", got)
	}
}

// TestCoordinatorRetriesTransportError: a dispatch whose connection drops
// before the answer is sent once more to the same worker, so a sweep on a
// single worker survives the blip without a requeue.
func TestCoordinatorRetriesTransportError(t *testing.T) {
	real := NewWorker(nil, nil).Handler()
	var dropped atomic.Bool
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !dropped.Swap(true) {
			panic(http.ErrAbortHandler) // close the connection unanswered
		}
		real.ServeHTTP(w, r)
	}))
	defer worker.Close()

	br := breaker.NewSet(breaker.Config{Jitter: -1})
	co := &Coordinator{Workers: []string{worker.URL}, Breakers: br}
	jobs := BSweepJobs("lu", 20, "oneport", 0, []int{2, 4})
	results, err := co.Run(context.Background(), nil, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) || co.Stats.Requeues != 0 {
		t.Fatalf("%d results for %d jobs, %d requeues", len(results), len(jobs), co.Stats.Requeues)
	}
	if got := br.Get(worker.URL).CurrentState(time.Now()); got != breaker.Closed {
		t.Fatalf("breaker %v after a retried dispatch, want closed", got)
	}
}

// TestMergeRejectsIncomplete pins the determinism guard: a lost or
// duplicated job must fail the merge instead of silently skewing numbers.
func TestMergeRejectsIncomplete(t *testing.T) {
	fig, _ := exp.FigureByID("fig8")
	jobs := FigureJobs(fig, "oneport", []int{20, 40})
	sh := Shard{Jobs: jobs}
	res, err := NewWorker(nil, nil).RunShard(context.Background(), &sh)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeFigure(fig, sched.OnePort, res.Results[:1], len(jobs)); err == nil {
		t.Fatal("missing job must fail the merge")
	}
	dup := append(append([]Result(nil), res.Results...), res.Results[0])
	if _, err := MergeFigure(fig, sched.OnePort, dup, len(jobs)); err == nil {
		t.Fatal("duplicated job must fail the merge")
	}
	if _, err := MergeFigure(fig, sched.OnePort, dup, len(dup)); err == nil {
		t.Fatal("non-contiguous ids must fail the merge")
	}
}

// TestShardPlatformRoundTrip runs a shard on a non-default platform sent
// over the wire through the platform JSON codec.
func TestShardPlatformRoundTrip(t *testing.T) {
	small, err := platform.Homogeneous(4)
	if err != nil {
		t.Fatal(err)
	}
	fig, _ := exp.FigureByID("fig8")
	sizes := []int{20, 40}
	want, err := exp.Run(fig, small, sched.OnePort, sizes)
	if err != nil {
		t.Fatal(err)
	}
	co := twoWorkers(t)
	results, err := co.Run(context.Background(), small, FigureJobs(fig, "oneport", sizes))
	if err != nil {
		t.Fatal(err)
	}
	got, err := MergeFigure(fig, sched.OnePort, results, len(sizes))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Points {
		if got.Points[i] != want.Points[i] {
			t.Fatalf("point %d differs on custom platform", i)
		}
	}
}

// TestWorkStealingMidSweepFailure kills a worker mid-sweep: it serves its
// first chunk, then starts failing. The failed chunk must be requeued onto
// the surviving worker and the merged series must stay byte-identical to
// the single-process run — the failover acceptance criterion under
// work-stealing dispatch.
func TestWorkStealingMidSweepFailure(t *testing.T) {
	fig, err := exp.FigureByID("fig8")
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{10, 20, 30, 40, 50}
	pl := platform.Paper()
	want, err := exp.Run(fig, pl, sched.OnePort, sizes)
	if err != nil {
		t.Fatal(err)
	}

	live := httptest.NewServer(NewWorker(nil, nil).Handler())
	defer live.Close()
	real := NewWorker(nil, nil).Handler()
	var served atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) > 1 {
			http.Error(w, "worker crashed mid-sweep", http.StatusInternalServerError)
			return
		}
		real.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	co := &Coordinator{Workers: []string{flaky.URL, live.URL}}
	jobs := FigureJobs(fig, "oneport", sizes)
	results, err := co.Run(context.Background(), nil, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if served.Load() < 2 {
		t.Fatal("flaky worker never got a second chunk; the failure path did not run")
	}
	if co.Stats.Requeues == 0 {
		t.Fatal("no chunk was requeued after the mid-sweep failure")
	}
	got, err := MergeFigure(fig, sched.OnePort, results, len(jobs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Points {
		if got.Points[i] != want.Points[i] {
			t.Fatalf("point %d differs after mid-sweep failover:\n got %+v\nwant %+v", i, got.Points[i], want.Points[i])
		}
	}
	if got.Table() != want.Table() {
		t.Fatal("rendered tables differ after mid-sweep failover")
	}
}

// TestRepeatedSweepWorkerCacheHits runs the same sweep twice against the
// same worker: the second run must be served from the worker result cache
// (every job a hit, whichever listener takes it) and still merge to the
// identical series.
func TestRepeatedSweepWorkerCacheHits(t *testing.T) {
	fig, err := exp.FigureByID("fig9")
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{8, 12, 16}
	co := twoWorkers(t)
	jobs := FigureJobs(fig, "oneport", sizes)

	first, err := co.Run(context.Background(), nil, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if co.Stats.CacheHits != 0 {
		t.Fatalf("cold sweep reported %d cache hits", co.Stats.CacheHits)
	}
	wantSeries, err := MergeFigure(fig, sched.OnePort, first, len(jobs))
	if err != nil {
		t.Fatal(err)
	}

	second, err := co.Run(context.Background(), nil, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if co.Stats.CacheHits != len(jobs) {
		t.Fatalf("repeated sweep: %d cache hits, want %d", co.Stats.CacheHits, len(jobs))
	}
	gotSeries, err := MergeFigure(fig, sched.OnePort, second, len(jobs))
	if err != nil {
		t.Fatal(err)
	}
	if gotSeries.Table() != wantSeries.Table() {
		t.Fatal("cached sweep merged to a different series")
	}

	// overlapping sweep: one shared size, one new — only the shared one hits
	overlap := FigureJobs(fig, "oneport", []int{12, 24})
	if _, err := co.Run(context.Background(), nil, overlap); err != nil {
		t.Fatal(err)
	}
	if co.Stats.CacheHits != 1 {
		t.Fatalf("overlapping sweep: %d cache hits, want 1", co.Stats.CacheHits)
	}
}

// TestWorkerCacheKeyedByContent pins the cache key: the job ID is excluded
// (the same point under a different ID hits) while every content field and
// the platform split it.
func TestWorkerCacheKeyedByContent(t *testing.T) {
	pl := platform.Paper()
	base := Job{ID: 0, Kind: KindFigure, Model: "oneport", Figure: "fig8", Size: 20}
	key := jobKey(base, pl)

	renumbered := base
	renumbered.ID = 7
	if jobKey(renumbered, pl) != key {
		t.Fatal("job ID changed the key")
	}
	for name, mut := range map[string]func(*Job){
		"kind":   func(j *Job) { j.Kind = KindBSweep },
		"model":  func(j *Job) { j.Model = "macro" },
		"figure": func(j *Job) { j.Figure = "fig9" },
		"size":   func(j *Job) { j.Size = 30 },
		"b":      func(j *Job) { j.B = 4 },
		"scan":   func(j *Job) { j.Scan = 2 },
	} {
		alt := base
		mut(&alt)
		if jobKey(alt, pl) == key {
			t.Fatalf("changing %s did not change the key", name)
		}
	}
	small, err := platform.Homogeneous(4)
	if err != nil {
		t.Fatal(err)
	}
	if jobKey(base, small) == key {
		t.Fatal("changing the platform did not change the key")
	}
}

// TestDistinctWorkersShareNoHits: two Workers in one process keep separate
// result caches, like two processes — a job only the first ever ran is a
// miss on the second.
func TestDistinctWorkersShareNoHits(t *testing.T) {
	w1 := httptest.NewServer(NewWorker(nil, nil).Handler())
	defer w1.Close()
	w2 := httptest.NewServer(NewWorker(nil, nil).Handler())
	defer w2.Close()
	jobs := BSweepJobs("lu", 20, "oneport", 0, []int{4})

	run := func(url string) int {
		t.Helper()
		co := &Coordinator{Workers: []string{url}}
		if _, err := co.Run(context.Background(), nil, jobs); err != nil {
			t.Fatal(err)
		}
		return co.Stats.CacheHits
	}
	if got := run(w1.URL); got != 0 {
		t.Fatalf("cold job on worker 1: %d cache hits, want 0", got)
	}
	if got := run(w1.URL); got != 1 {
		t.Fatalf("repeat on worker 1: %d cache hits, want 1", got)
	}
	if got := run(w2.URL); got != 0 {
		t.Fatalf("worker 2 reported %d cache hits for a job only worker 1 ran", got)
	}
}
