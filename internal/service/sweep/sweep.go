// Package sweep shards the experiment harness across worker processes: the
// first multi-machine scaling path. A figure sweep (internal/exp, Figures
// 7–12) or a B-sweep (cmd/bsweep) is decomposed into independent jobs; a
// coordinator feeds the jobs to worker processes (schedserve -worker,
// endpoint /sweep/run) with work-stealing dispatch — each worker pulls the
// next chunk as it finishes the last, so fast workers take more of the
// sweep instead of waiting on a static partition — and the partial results
// are merged deterministically — sorted by job id with completeness checked
// — so a sharded sweep reproduces the single-process numbers exactly,
// regardless of worker count, scheduling order or which worker ran which
// job. Workers cache job results keyed by a content hash of (job fields,
// platform), so repeated or overlapping sweeps skip recomputation; cached
// results are the stored values of earlier runs of the same pure job, so
// the merge stays byte-identical.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"oneport/internal/cli"
	"oneport/internal/exp"
	"oneport/internal/heuristics"
	"oneport/internal/platform"
	"oneport/internal/sched"
	"oneport/internal/service/admit"
	"oneport/internal/testbeds"
)

// Job kinds.
const (
	KindFigure = "figure" // one (figure, size) point: HEFT vs ILHA
	KindBSweep = "bsweep" // one ILHA run at a single chunk size B
)

// Job is one independent unit of a sweep. Its result depends only on the
// job fields and the shard's platform — never on the process that runs it.
type Job struct {
	ID   int    `json:"id"`
	Kind string `json:"kind"`
	// Model names the communication model; empty means "oneport".
	Model string `json:"model,omitempty"`

	// KindFigure: one size of one figure.
	Figure string `json:"figure,omitempty"`
	Size   int    `json:"size"`

	// KindBSweep: one ILHA chunk size on one testbed instance (Size above).
	Testbed string `json:"testbed,omitempty"`
	B       int    `json:"b,omitempty"`
	Scan    int    `json:"scan,omitempty"`
}

// Result is the outcome of one job. Job is echoed back so merging never
// depends on coordinator-side bookkeeping beyond the id.
type Result struct {
	Job   Job        `json:"job"`
	Point *exp.Point `json:"point,omitempty"` // figure jobs
	// B-sweep jobs: the speedup and message count of the single ILHA run.
	Speedup float64 `json:"speedup,omitempty"`
	Comms   int     `json:"comms,omitempty"`
	Err     string  `json:"err,omitempty"`
}

// Shard is the wire payload a coordinator sends to one worker. Platform is
// optional; nil means the paper's 10-processor platform, and round-trips
// through the platform JSON codec otherwise (sparse topologies included).
type Shard struct {
	Platform *platform.Platform `json:"platform,omitempty"`
	Jobs     []Job              `json:"jobs"`
}

// ShardResult answers a Shard, one Result per job. CacheHits reports how
// many of the jobs were served from the worker's result cache instead of
// being recomputed; RingFills how many were filled from the owning worker
// across the fleet ring (a subset of the non-hits).
type ShardResult struct {
	Results   []Result `json:"results"`
	CacheHits int      `json:"cache_hits,omitempty"`
	RingFills int      `json:"ring_fills,omitempty"`
}

// FigureJobs decomposes a figure sweep into jobs, one per problem size.
func FigureJobs(fig exp.Figure, model string, sizes []int) []Job {
	jobs := make([]Job, len(sizes))
	for i, n := range sizes {
		jobs[i] = Job{ID: i, Kind: KindFigure, Model: model, Figure: fig.ID, Size: n}
	}
	return jobs
}

// BSweepJobs decomposes a B-sweep into jobs, one per chunk size.
func BSweepJobs(testbed string, size int, model string, scan int, bs []int) []Job {
	jobs := make([]Job, len(bs))
	for i, b := range bs {
		jobs[i] = Job{ID: i, Kind: KindBSweep, Model: model, Testbed: testbed, Size: size, B: b, Scan: scan}
	}
	return jobs
}

// Worker is one sweep worker: the job-result cache every shard it serves
// shares, the fleet it fills cold jobs from (nil: every miss computes
// locally) and the admission controller its shards queue on (nil:
// ungated). cmd/schedserve builds one per -worker process.
type Worker struct {
	cache     *resultCache
	fleet     *Fleet
	admission *admit.Controller
}

// NewWorker returns a worker with an empty result cache.
func NewWorker(fleet *Fleet, admission *admit.Controller) *Worker {
	return &Worker{cache: newResultCache(workerCacheSize), fleet: fleet, admission: admission}
}

// RunShard executes a shard's jobs on this process, fanning them out across
// the CPUs with one pooled scheduler scratch per lane. Jobs whose content
// hash is in the worker result cache are served from it (counted in
// ShardResult.CacheHits); the rest are filled from the fleet or computed,
// and inserted. ctx bounds the fleet fills only. Per-job failures are
// reported in Result.Err; the shard itself only fails on a malformed
// platform (which poisons every job anyway).
func (wk *Worker) RunShard(ctx context.Context, sh *Shard) (*ShardResult, error) {
	return wk.runShard(ctx, sh, true)
}

// runShard is RunShard with the fleet switch explicit: ring fills received
// from other workers run with allowFleet false so a shard is never
// forwarded twice.
func (wk *Worker) runShard(ctx context.Context, sh *Shard, allowFleet bool) (*ShardResult, error) {
	pl := sh.Platform
	if pl == nil {
		pl = platform.Paper()
	}
	out := &ShardResult{Results: make([]Result, len(sh.Jobs))}
	lanes := runtime.GOMAXPROCS(0)
	if lanes > len(sh.Jobs) {
		lanes = len(sh.Jobs)
	}
	var next int
	var hits, ringFills atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// per-lane scratch: jobs on a lane run one after another, so
			// the one-run-at-a-time Tuning rule holds by construction.
			tune := &heuristics.Tuning{Scratch: heuristics.NewScratch()}
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(sh.Jobs) {
					return
				}
				out.Results[i] = wk.runJobCached(ctx, sh.Jobs[i], pl, tune, allowFleet, &hits, &ringFills)
			}
		}()
	}
	wg.Wait()
	out.CacheHits = int(hits.Load())
	out.RingFills = int(ringFills.Load())
	return out, nil
}

// runJobCached serves a job from the worker result cache when its content
// hash is present; on a miss it fills from the key's owning worker when
// the worker has a fleet (adopting the owner's result into the local
// cache), and computes locally otherwise. Jobs are pure functions of (job
// fields, platform) — Result.Job.ID excluded — so a cached or fleet-filled
// value is the byte-identical outcome of re-running the job.
func (wk *Worker) runJobCached(ctx context.Context, job Job, pl *platform.Platform, tune *heuristics.Tuning, allowFleet bool, hits, ringFills *atomic.Int64) Result {
	key := jobKey(job, pl)
	if res, ok := wk.cache.get(key, job); ok {
		hits.Add(1)
		return res
	}
	if allowFleet {
		if res, ok := wk.fleet.fill(ctx, key, job, pl); ok {
			ringFills.Add(1)
			wk.cache.add(key, res)
			return res
		}
	}
	res := runJob(job, pl, tune)
	if res.Err == "" {
		wk.cache.add(key, res)
	}
	return res
}

func runJob(job Job, pl *platform.Platform, tune *heuristics.Tuning) Result {
	res := Result{Job: job}
	modelName := job.Model
	if modelName == "" {
		modelName = "oneport"
	}
	model, err := cli.ParseModel(modelName)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	switch job.Kind {
	case KindFigure:
		fig, err := exp.FigureByID(job.Figure)
		if err != nil {
			res.Err = err.Error()
			return res
		}
		p, err := exp.RunPointSpecTuned(exp.PointSpec{Figure: fig, Size: job.Size}, pl, model, tune)
		if err != nil {
			res.Err = err.Error()
			return res
		}
		res.Point = &p
	case KindBSweep:
		g, err := testbeds.ByName(job.Testbed, job.Size, exp.CommRatio)
		if err != nil {
			res.Err = err.Error()
			return res
		}
		p, err := exp.RunBPoint(g, pl, model, job.B, job.Scan, tune)
		if err != nil {
			res.Err = err.Error()
			return res
		}
		res.Speedup, res.Comms = p.Speedup, p.Comms
	default:
		res.Err = fmt.Sprintf("sweep: unknown job kind %q", job.Kind)
	}
	return res
}

// mergeCheck sorts results by job id and verifies each expected id occurs
// exactly once with no error — the deterministic-merge precondition shared
// by MergeFigure and MergeBSweep.
func mergeCheck(results []Result, want int) ([]Result, error) {
	if len(results) != want {
		return nil, fmt.Errorf("sweep: merged %d results, want %d", len(results), want)
	}
	sorted := append([]Result(nil), results...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Job.ID < sorted[j].Job.ID })
	for i, r := range sorted {
		if r.Err != "" {
			return nil, fmt.Errorf("sweep: job %d failed: %s", r.Job.ID, r.Err)
		}
		if r.Job.ID != i {
			return nil, fmt.Errorf("sweep: job ids not contiguous: got %d at position %d", r.Job.ID, i)
		}
	}
	return sorted, nil
}

// MergeFigure reassembles figure-job results into the figure's Series,
// exactly as the single-process exp.Run would have produced it.
func MergeFigure(fig exp.Figure, model sched.Model, results []Result, wantJobs int) (*exp.Series, error) {
	sorted, err := mergeCheck(results, wantJobs)
	if err != nil {
		return nil, err
	}
	points := make([]exp.Point, 0, len(sorted))
	for _, r := range sorted {
		if r.Job.Kind != KindFigure || r.Point == nil {
			return nil, fmt.Errorf("sweep: job %d is not a figure result", r.Job.ID)
		}
		points = append(points, *r.Point)
	}
	return exp.AssembleSeries(fig, model, points)
}

// MergeBSweep reassembles B-sweep results into the exp.BSweep map shape:
// speedup per chunk size.
func MergeBSweep(results []Result, wantJobs int) (map[int]float64, error) {
	sorted, err := mergeCheck(results, wantJobs)
	if err != nil {
		return nil, err
	}
	out := make(map[int]float64, len(sorted))
	for _, r := range sorted {
		if r.Job.Kind != KindBSweep {
			return nil, fmt.Errorf("sweep: job %d is not a bsweep result", r.Job.ID)
		}
		if _, dup := out[r.Job.B]; dup {
			return nil, fmt.Errorf("sweep: duplicate B=%d", r.Job.B)
		}
		out[r.Job.B] = r.Speedup
	}
	return out, nil
}
