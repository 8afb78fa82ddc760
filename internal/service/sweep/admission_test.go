package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"oneport/internal/service/admit"
	"oneport/internal/service/breaker"
)

func TestJobCost(t *testing.T) {
	if got := jobCost(Job{Kind: KindFigure, Size: 50}); got != 200 {
		t.Fatalf("figure job cost %v, want 200", got)
	}
	if got := jobCost(Job{Kind: KindBSweep, Size: 50}); got != 150 {
		t.Fatalf("bsweep job cost %v, want 150", got)
	}
	if got := jobCost(Job{Kind: KindBSweep}); got != 3 {
		t.Fatalf("zero-size job cost %v, want the floor", got)
	}
	jobs := []Job{{Kind: KindFigure, Size: 10}, {Kind: KindBSweep, Size: 10}}
	if got := shardCost(jobs); got != 70 {
		t.Fatalf("shard cost %v, want 70", got)
	}
}

// TestShardAdmissionGate: with a controller, a shard the quota rejects is
// shed as 503 + numeric Retry-After before any lane starts; a worker
// without one serves the same shard.
func TestShardAdmissionGate(t *testing.T) {
	jobs := BSweepJobs("lu", 20, "oneport", 0, []int{4})
	cost := shardCost(jobs)
	// a sweep-tenant bucket too small for this shard: immediate rate shed
	ts := httptest.NewServer(NewWorker(nil, admit.New(admit.Config{
		Slots:  2,
		Quotas: map[string]admit.Quota{sweepTenant: {Rate: 0.001, Burst: cost / 2}},
	})).Handler())
	defer ts.Close()
	body, err := json.Marshal(&Shard{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/sweep/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("gated shard answered %d, want 503", resp.StatusCode)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("shed Retry-After %q not a positive integer", resp.Header.Get("Retry-After"))
	}

	open := httptest.NewServer(NewWorker(nil, nil).Handler())
	defer open.Close()
	resp, err = http.Post(open.URL+"/sweep/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ungated shard answered %d, want 200", resp.StatusCode)
	}
}

// TestCoordinatorBacksOffOn503: a worker 503 is backpressure, not a fault.
// The coordinator waits out the Retry-After and retries the same worker —
// no requeue, no retirement, no breaker trip — and the sweep completes.
func TestCoordinatorBacksOffOn503(t *testing.T) {
	real := NewWorker(nil, nil).Handler()
	var calls atomic.Int32
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, errors.New("sweep: drill overload"))
			return
		}
		real.ServeHTTP(w, r)
	}))
	defer worker.Close()

	br := breaker.NewSet(breaker.Config{})
	co := &Coordinator{Workers: []string{worker.URL}, Breakers: br}
	jobs := BSweepJobs("lu", 20, "oneport", 0, []int{2, 4})
	results, err := co.Run(context.Background(), nil, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("%d results for %d jobs", len(results), len(jobs))
	}
	if co.Stats.Backoffs != 1 {
		t.Fatalf("Backoffs = %d, want 1", co.Stats.Backoffs)
	}
	if co.Stats.Requeues != 0 {
		t.Fatalf("overload requeued a chunk: %+v", co.Stats)
	}
	if !br.Allow(worker.URL, time.Now()) {
		t.Fatal("a 503 tripped the worker's breaker")
	}
}
