package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"oneport/internal/heuristics"
	"oneport/internal/sched"
)

// kernelDigestSeed1 pins the seed-1 kernel outputs: the SHA-256 over every
// instance's name, makespan bits and communication count, in list order.
// Schedules are byte-identical across scheduler optimisations, so a change
// here means a change of behaviour, not of speed.
const kernelDigestSeed1 = "3f8d3e2694443febda40b6a23947b9fff84e1c9505a4a6a17fa98708640fe2d1"

// kernelSetupPoints is how many points of a kernel run time the set-up:
// one before the warm-up and the rest spread over the measured pass.
const kernelSetupPoints = 9

// kernelRunner runs kernel instances with one reused Scratch per processor
// count, the way a worker loop scheduling many graphs would.
type kernelRunner struct {
	fns []heuristics.Func
}

func newKernelRunner(list []instance, probePar int) (*kernelRunner, error) {
	scratch := map[int]*heuristics.Scratch{}
	r := &kernelRunner{fns: make([]heuristics.Func, len(list))}
	for i, in := range list {
		sc := scratch[in.pl.NumProcs()]
		if sc == nil {
			sc = heuristics.NewScratch()
			scratch[in.pl.NumProcs()] = sc
		}
		fn, err := heuristics.ByNameTuned(in.heur, in.opts, &heuristics.Tuning{ProbeParallelism: probePar, Scratch: sc})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.name, err)
		}
		r.fns[i] = fn
	}
	return r, nil
}

func (r *kernelRunner) run(list []instance, i int) (*sched.Schedule, error) {
	return r.fns[i](list[i].g, list[i].pl, list[i].model)
}

// kernelResult is what one instance produced: the numbers the checks
// compare between runs.
type kernelResult struct {
	makespan uint64 // float bits
	comms    int
}

func resultOf(s *sched.Schedule) kernelResult {
	return kernelResult{math.Float64bits(s.Makespan()), s.CommCount()}
}

// runKernel is the offline workload: one in-process caller schedules the
// kernel list through heuristics.ByNameTuned at probe parallelism 2, pass
// after pass, for the measured time. No service, JSON or journal is
// involved, so kernel changes show here and only here.
func runKernel(ctx context.Context, h *harness) error {
	// set-up builds the instance list (graphs and platforms): timed here
	// and at kernelSetupPoints-1 points of the measured pass
	st := &setupTimes{what: "instance-list builds", rounds: setupRounds}
	build := func() (time.Duration, error) {
		runtime.GC() // the garbage of earlier work is not this build's cost
		began := time.Now()
		_, err := kernelList(h.seed)
		return time.Since(began), err
	}
	if err := st.point(build); err != nil {
		return err
	}
	list, err := kernelList(h.seed)
	if err != nil {
		return err
	}
	r, err := newKernelRunner(list, 2)
	if err != nil {
		return err
	}

	// reference pass, unmeasured: every schedule must validate, and its
	// results are what every later run must reproduce
	ref := make([]kernelResult, len(list))
	tasks := 0
	for i, in := range list {
		h.attempted++
		s, err := r.run(list, i)
		if err == nil {
			err = sched.Validate(in.g, in.pl, s, in.model)
		}
		if err != nil {
			h.failed++
			h.fail("kernel %s: %v", in.name, err)
			continue
		}
		ref[i] = resultOf(s)
		tasks += in.g.NumNodes()
	}
	digest := kernelDigest(list, ref)
	h.notef("kernel: %d instances, %d tasks per pass, digest %s", len(list), tasks, digest)
	if h.seed == 1 && digest != kernelDigestSeed1 {
		h.fail("kernel seed-1 digest %s, want %s", digest, kernelDigestSeed1)
	}

	// warm-up, then the measured passes; one caller, so each run is due
	// when the previous one ended. points set-up points are spread evenly
	// over the passes, between two of them.
	pass := func(until time.Duration, tr *tracer, points int) (p phase, err error) {
		start := time.Now()
		prevEnd := time.Duration(0)
		for pt := 0; time.Since(start) < until; {
			if pt < points && time.Since(start) >= until*time.Duration(pt)/time.Duration(points) {
				if err := st.point(build); err != nil {
					return p, err
				}
				pt++
				prevEnd = time.Since(start)
			}
			for i, in := range list {
				h.attempted++
				began := time.Since(start)
				s, err := r.run(list, i)
				end := time.Since(start)
				if err != nil || resultOf(s) != ref[i] {
					h.failed++
					h.fail("kernel %s: run differs from the reference pass (err %v)", in.name, err)
					continue
				}
				smp := sample{due: prevEnd, start: began, end: end, class: int32(i), tasks: int32(in.g.NumNodes()), ok: true}
				p.samples = append(p.samples, smp)
				tr.op("kernel.op", "heuristics.run", 0, start, smp)
				prevEnd = end
			}
		}
		p.elapsed = time.Since(start)
		return p, nil
	}
	if _, err := pass(h.warmDur(), nil, 0); err != nil {
		return err
	}
	p, err := pass(h.seconds, h.tr, kernelSetupPoints-1)
	if err != nil {
		return err
	}
	h.setup(st)

	// the probe fan-out must not change any schedule
	r1, err := newKernelRunner(list, 1)
	if err != nil {
		return err
	}
	known := 0
	for i, in := range list {
		h.attempted++
		s, err := r1.run(list, i)
		switch {
		case err != nil:
			h.failed++
			h.fail("kernel %s at probe parallelism 1: %v", in.name, err)
		case resultOf(s) == ref[i]:
		case parDependent(in):
			known++
		default:
			h.failed++
			h.fail("kernel %s: probe parallelism 1 differs from 2", in.name)
		}
	}
	if known > 0 {
		h.notef("kernel: KNOWN BUG: %d DLS one-port/uni-port schedules differ between probe parallelism 1 and 2", known)
	}

	rss, err := vmHWM(os.Getpid())
	if err != nil {
		return err
	}
	// a run's latency is its own duration: sample.latency counts from due
	h.latencies("instance runs", p, sample.service, p.waits())
	ops, tasksPerS := p.bestThroughput(1)
	h.set("tasks_per_s", tasksPerS, "1/s")
	h.set("capacity_rps", ops, "1/s")
	h.set("peak_rss_mb", rss, "MB")
	return nil
}

// parDependent reports the instances whose schedule is known to depend on
// the probe parallelism: DLS under the one-port and uni-port models picks
// a different schedule at parallelism 1 than at 2 on some graphs (lu40 and
// stencil30 on the paper platform among them). That is a scheduler bug the
// benchmark reports but does not fail on; see README.md.
func parDependent(in instance) bool {
	return in.heur == "dls" && (in.model == sched.OnePort || in.model == sched.UniPort)
}

// kernelDigest hashes each instance's name, makespan bits and comm count.
func kernelDigest(list []instance, res []kernelResult) string {
	hs := sha256.New()
	var b [8]byte
	for i, in := range list {
		hs.Write([]byte(in.name))
		binary.LittleEndian.PutUint64(b[:], res[i].makespan)
		hs.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], uint64(res[i].comms))
		hs.Write(b[:])
	}
	return hex.EncodeToString(hs.Sum(nil))
}
