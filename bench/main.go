// Command bench is the repository's benchmark: four workloads that time
// the scheduler offline and the scheduling service over real HTTP, check
// every output they time, and print the metrics as one JSON line.
//
//	bash bench/run.sh --workload kernel --seed 1 --seconds 25 --trace 0
//
// run.sh builds this harness and cmd/schedserve from the checkout and
// passes -schedserve and -dir. With --trace 1 the workload runs with spans
// recorded, followed by an attribution pass through the public calls of
// each layer; the run then prints the per-layer metrics and writes a
// Chrome trace-event file under <dir>/trace. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line the benchmark prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// harness is what every workload needs from the command line and the
// process: where schedserve is, where temp files go, the tracer (nil when
// untraced) and the cleanup registry.
type harness struct {
	schedserve string
	tmp        string
	seed       int64
	seconds    time.Duration
	tr         *tracer
	c          *cleanup
	notes      []string // human-readable lines printed before the JSON

	attempted, failed int
	metrics           map[string]metric

	mu     sync.Mutex
	checks []string // failed output checks; workers add to it concurrently
}

// endToEnd and perLayer are the metrics of an untraced and of a traced
// run, as BENCHMARK.json lists them.
var (
	endToEnd = []string{"setup_s", "p50_ms", "p90_ms", "tasks_per_s", "capacity_rps", "peak_rss_mb"}
	perLayer = []string{
		"loadgen.late_p99_ms", "loadgen.wait_p50_ms", "trace.p50_ms",
		"http.req_bytes", "http.resp_bytes",
		"service.handler_us", "service.decode_us", "service.graph_decode_us", "service.key_us",
		"service.encode_us", "service.glue_us", "service.hit_us",
		"service.body_hit_ratio", "service.canonical_hit_ratio", "service.miss_ratio",
		"service.allocs_per_req", "service.allocs_per_hit",
		"heuristics.run_us", "heuristics.bytes_per_task", "heuristics.par_speedup",
		"heuristics.tasks_per_s.heft", "heuristics.tasks_per_s.ilha", "heuristics.tasks_per_s.cpop",
		"heuristics.tasks_per_s.dls", "heuristics.tasks_per_s.bil",
		"sched.validate_us", "sched.comms_per_task",
		"session.delta_us", "session.replayed_ratio", "session.recover_ms",
		"journal.append_us", "journal.fsync_us", "journal.bytes_per_delta",
	}
)

func (h *harness) set(name string, v float64, unit string) {
	h.metrics[name] = metric{Value: v, Unit: unit}
}

func (h *harness) notef(format string, args ...any) {
	h.notes = append(h.notes, fmt.Sprintf(format, args...))
}

// fail records a failed output check; the run then reports correct=false.
func (h *harness) fail(format string, args ...any) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.checks = append(h.checks, fmt.Sprintf(format, args...))
}

// latencies records the best-of latency percentiles of a measured phase
// (see phase.bestOf), with d the latency of one sample, and what the load
// generator saw: how long operations waited between being due and
// starting, and how late it released them. The raw percentiles are
// printed alongside.
func (h *harness) latencies(what string, p phase, d func(sample) time.Duration, late []time.Duration) {
	best := p.bestOf(d)
	p50, p90, p99 := quantile(best, 0.5), quantile(best, 0.9), quantile(best, 0.99)
	h.set("p50_ms", p50, "ms")
	h.set("p90_ms", p90, "ms")
	h.set("trace.p50_ms", p50, "ms")
	toMS := func(ds []time.Duration) []float64 {
		out := make([]float64, len(ds))
		for i, d := range ds {
			out[i] = ms(d)
		}
		return out
	}
	var raw []time.Duration
	classes := map[int32]bool{}
	for _, s := range okSamples(p.samples) {
		raw = append(raw, d(s))
		classes[s.class] = true
	}
	rawMS := toMS(raw)
	h.set("loadgen.wait_p50_ms", median(toMS(p.waits())), "ms")
	h.set("loadgen.late_p99_ms", quantile(toMS(late), 0.99), "ms")
	h.notef("%s: %d samples in %d classes (%d above p99); best-of p50 %.3f ms, p90 %.3f ms, p99 %.3f ms; raw p50 %.3f ms, p90 %.3f ms, p99 %.3f ms",
		what, len(best), len(classes), len(best)/100, p50, p90, p99,
		quantile(rawMS, 0.5), quantile(rawMS, 0.9), quantile(rawMS, 0.99))
}

// tally counts a finished phase's operations into the report and moves
// next, the number of the workload's first operation not yet used, past
// them.
func (h *harness) tally(p phase, next *int) phase {
	h.attempted += len(p.samples)
	h.failed += p.failed()
	*next += len(p.samples)
	return p
}

// Phase lengths, as shares of --seconds: HTTP workloads measure an open
// loop for two thirds and a closed loop for the last third, after an
// unmeasured warm-up of a tenth.
func (h *harness) openDur() time.Duration   { return h.seconds * 2 / 3 }
func (h *harness) closedDur() time.Duration { return h.seconds - h.openDur() }
func (h *harness) warmDur() time.Duration   { return h.seconds / 10 }

var workloads = map[string]func(context.Context, *harness) error{
	"kernel":   runKernel,
	"cold-mix": runColdMix,
	"hot-zipf": runHotZipf,
	"session":  runSession,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: kernel, cold-mix, hot-zipf or session")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 25, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1: traced run printing per-layer metrics")
		bin      = flag.String("schedserve", "", "schedserve binary")
		dir      = flag.String("dir", ".bench_build", "directory for temp files and traces")
	)
	flag.Parse()
	os.Exit(run(os.Stdout, *workload, *seed, *seconds, *trace == 1, *bin, *dir))
}

// run runs one workload and writes its report to out; it returns the exit
// code.
func run(out io.Writer, workload string, seed int64, seconds float64, traced bool, bin, dir string) int {
	fn, ok := workloads[workload]
	if !ok || seconds <= 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q or bad --seconds (workloads: kernel, cold-mix, hot-zipf, session)\n", workload)
		return 2
	}
	h := &harness{
		schedserve: bin,
		seed:       seed,
		seconds:    time.Duration(seconds * float64(time.Second)),
		c:          newCleanup(),
		metrics:    map[string]metric{},
	}
	// deferred calls also run while a panic unwinds
	defer h.c.run()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-sigs:
			cancel()
			h.c.run()
			os.Exit(130)
		case <-ctx.Done():
		}
	}()

	var err error
	if h.tmp, err = filepath.Abs(filepath.Join(dir, "tmp")); err == nil {
		err = os.MkdirAll(h.tmp, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if traced {
		h.tr = newTracer()
	}
	if err := fn(ctx, h); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", workload, err)
		return 1
	}
	if traced {
		if err := attribute(ctx, h); err != nil {
			fmt.Fprintf(os.Stderr, "bench: attribution: %v\n", err)
			return 1
		}
		path := filepath.Join(dir, "trace", fmt.Sprintf("%s-seed%d.json", workload, seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			err = h.tr.write(path)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: trace:", err)
			return 1
		}
		h.notef("trace written to %s (%d spans)", path, len(h.tr.spans))
	}
	for _, n := range h.notes {
		fmt.Fprintln(out, n)
	}
	names := endToEnd
	if traced {
		names = perLayer
	}
	metrics := map[string]metric{}
	for _, name := range names {
		m, ok := h.metrics[name]
		if !ok {
			h.fail("metric %s was not measured", name)
			continue
		}
		metrics[name] = m
		fmt.Fprintf(out, "  %-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, c := range h.checks {
		fmt.Fprintln(out, "CHECK FAILED:", c)
	}
	rep := report{Correct: len(h.checks) == 0 && h.failed == 0, Attempted: h.attempted, Failed: h.failed, Metrics: metrics}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}
