package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"oneport/internal/cli"
	"oneport/internal/graph"
	"oneport/internal/heuristics"
	"oneport/internal/platform"
	"oneport/internal/sched"
	"oneport/internal/service"
	"oneport/internal/service/journal"
	"oneport/internal/service/session"
)

// The attribution pass of a traced run replays each workload's inputs
// through the public calls of every layer, in-process and one call at a
// time, each call in its own span. It runs the same passes whichever
// workload was traced, so every traced run reports every per-layer
// metric:
//
//   - the cold-mix templates through the service handler and through its
//     parts (decode, key, run, validate, encode), for the split of a cold
//     request;
//   - the hot-zipf request stream through a fresh handler, for hit ratios
//     and the cost of a byte-index hit;
//   - the kernel list at probe parallelism 2 and 1;
//   - the session deltas through a journal-less session.Manager, and their
//     payloads through journal logs with and without fsync, and a journal
//     recovery.
func attribute(ctx context.Context, h *harness) error {
	if err := attributeService(h); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	if err := attributeHits(h); err != nil {
		return fmt.Errorf("hits: %w", err)
	}
	if err := attributeKernel(h); err != nil {
		return fmt.Errorf("kernel: %w", err)
	}
	if err := attributeSession(ctx, h); err != nil {
		return fmt.Errorf("session: %w", err)
	}
	return nil
}

// attribReps is how often each input is timed; the fastest repetition
// counts, which keeps one GC pause from landing in a layer's number.
const attribReps = 3

// timed returns how long fn takes.
func timed(fn func()) time.Duration {
	began := time.Now()
	fn()
	return time.Since(began)
}

// mallocs returns the heap allocations fn makes.
func mallocs(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

// serveBody sends one request body through handler in-process.
func serveBody(handler http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// attributeService splits a cold request: each cold-mix template goes
// through the whole handler (a cache miss: every repetition splices a new
// weight) and through each of its parts on its own. glue is what the
// handler spends beyond the parts, paired per input.
func attributeService(h *harness) error {
	tpls, err := coldMixTemplates(rand.New(rand.NewSource(h.seed)))
	if err != nil {
		return err
	}
	handler := service.New(service.Config{PoolSize: conns}).Handler()
	scratch := heuristics.NewScratch()
	parts := []string{"service.decode", "service.graph_decode", "service.key", "heuristics.run", "sched.validate", "service.encode"}
	sum := map[string]time.Duration{}
	var handlerSum, glueSum time.Duration
	var handlerUS []float64
	var allocs uint64
	var reqBytes, respBytes int
	var enc bytes.Buffer
	u := 0
	for _, t := range tpls {
		best := map[string]time.Duration{}
		keep := func(name string, d time.Duration) {
			if old, ok := best[name]; !ok || d < old {
				best[name] = d
			}
		}
		var bestAllocs uint64
		for rep := 0; rep < attribReps; rep++ {
			u++
			body := t.splice(nil, u)
			op, root := h.tr.newOp(), h.tr.reserve()
			pipeStart := time.Now()
			var rec *httptest.ResponseRecorder
			var d time.Duration
			n := mallocs(func() { d = timed(func() { rec = serveBody(handler, "/schedule", body) }) })
			if rec.Code != http.StatusOK {
				return fmt.Errorf("%s: handler answered %d: %.200s", t.name, rec.Code, rec.Body.Bytes())
			}
			h.tr.add("service.handler", 0, root, op, 0, pipeStart, pipeStart.Add(d))
			keep("service.handler", d)
			if rep == 0 || n < bestAllocs {
				bestAllocs = n
			}
			if rep == 0 {
				reqBytes += len(body)
				respBytes += rec.Body.Len()
			}

			var req service.Request
			step := func(name string, fn func() error) error {
				began := time.Now()
				err := fn()
				end := time.Now()
				h.tr.add(name, 0, root, op, 0, began, end)
				keep(name, end.Sub(began))
				return err
			}
			var raw struct {
				Graph json.RawMessage `json:"graph"`
			}
			if err := json.Unmarshal(body, &raw); err != nil {
				return err
			}
			var sch *sched.Schedule
			var model sched.Model
			var sumKey [32]byte
			var elapsed time.Duration
			err := step("service.decode", func() error {
				dec := json.NewDecoder(bytes.NewReader(body))
				dec.DisallowUnknownFields()
				return dec.Decode(&req)
			})
			if err == nil {
				err = step("service.graph_decode", func() error { return json.Unmarshal(raw.Graph, new(graph.Graph)) })
			}
			if err == nil {
				model, err = cli.ParseModel(req.Model)
			}
			if err == nil {
				err = step("service.key", func() error { sumKey = service.CanonicalSum(&req); return nil })
			}
			if err == nil {
				err = step("heuristics.run", func() error {
					fn, err := heuristics.ByNameTuned(req.Heuristic,
						heuristics.ILHAOptions{B: req.Options.B, ScanDepth: req.Options.ScanDepth},
						&heuristics.Tuning{ProbeParallelism: 1, Scratch: scratch})
					if err != nil {
						return err
					}
					began := time.Now()
					sch, err = fn(req.Graph, req.Platform, model)
					elapsed = time.Since(began)
					return err
				})
			}
			if err == nil {
				err = step("sched.validate", func() error { return sched.Validate(req.Graph, req.Platform, sch, model) })
			}
			if err == nil {
				err = step("service.encode", func() error {
					resp := service.Response{
						Key: hex.EncodeToString(sumKey[:]), Heuristic: req.Heuristic, Model: req.Model,
						Tasks: req.Graph.NumNodes(), Makespan: sch.Makespan(),
						Speedup: req.Platform.SequentialTime(req.Graph.TotalWeight()) / sch.Makespan(),
						Comms:   sch.CommCount(), ElapsedNs: elapsed.Nanoseconds(), Schedule: sch,
					}
					enc.Reset()
					return json.NewEncoder(&enc).Encode(&resp)
				})
			}
			if err != nil {
				return fmt.Errorf("%s: %w", t.name, err)
			}
			h.tr.add("service.pipeline", root, 0, op, 0, pipeStart, time.Now())
		}
		handlerSum += best["service.handler"]
		handlerUS = append(handlerUS, us(best["service.handler"]))
		glue := best["service.handler"]
		for _, p := range parts {
			sum[p] += best[p]
			if p != "service.graph_decode" { // part of service.decode
				glue -= best[p]
			}
		}
		glueSum += glue
		allocs += bestAllocs
	}
	n := float64(len(tpls))
	h.set("service.handler_us", us(handlerSum)/n, "us")
	h.set("service.glue_us", us(glueSum)/n, "us")
	for _, p := range parts {
		h.set(p+"_us", us(sum[p])/n, "us")
	}
	h.set("service.allocs_per_req", float64(allocs)/n, "count")
	h.set("http.req_bytes", float64(reqBytes)/n, "bytes")
	h.set("http.resp_bytes", float64(respBytes)/n, "bytes")
	h.notef("attribution: cold request split over %d cold-mix templates (mean of the fastest of %d; handler median %.1f us):",
		len(tpls), attribReps, median(handlerUS))
	for _, p := range append(parts, "service.glue") {
		v := us(glueSum)
		if p != "service.glue" {
			v = us(sum[p])
		}
		h.notef("  %-22s %8.1f us  %5.1f%% of the handler", p, v/n, 100*v/us(handlerSum))
	}
	return nil
}

// attribHitRequests is how much of the hot-zipf request stream the
// attribution pass replays.
const attribHitRequests = 3000

// attributeHits replays the start of the hot-zipf stream through a fresh
// handler for its hit ratios, then times byte-index hits on the most
// popular entry.
func attributeHits(h *harness) error {
	cat, entry, respell, err := hotZipfRequests(rand.New(rand.NewSource(h.seed)), attribHitRequests)
	if err != nil {
		return err
	}
	srv := service.New(service.Config{PoolSize: conns})
	handler := srv.Handler()
	var buf []byte
	for n := range entry {
		e := &cat[entry[n]]
		body := e.exact
		if respell[n] {
			buf = e.respelled(buf, n)
			body = buf
		}
		if rec := serveBody(handler, "/schedule", body); rec.Code != http.StatusOK {
			return fmt.Errorf("request %d answered %d", n, rec.Code)
		}
	}
	st := srv.StatsSnapshot()
	reqs := float64(st.Requests)
	h.set("service.body_hit_ratio", float64(st.CacheBodyHits)/reqs, "ratio")
	h.set("service.canonical_hit_ratio", float64(st.CacheHits-st.CacheBodyHits)/reqs, "ratio")
	h.set("service.miss_ratio", float64(st.CacheMisses)/reqs, "ratio")

	const hits = 1000
	top := cat[0].exact
	lat := make([]float64, 0, hits)
	for i := 0; i < hits; i++ {
		op, root := h.tr.newOp(), h.tr.reserve()
		began := time.Now()
		rec := serveBody(handler, "/schedule", top)
		end := time.Now()
		if rec.Code != http.StatusOK {
			return fmt.Errorf("byte-index hit answered %d", rec.Code)
		}
		h.tr.add("service.hit", 0, root, op, 0, began, end)
		h.tr.add("service.pipeline", root, 0, op, 0, began, end)
		lat = append(lat, us(end.Sub(began)))
	}
	allocs := mallocs(func() {
		for i := 0; i < hits; i++ {
			serveBody(handler, "/schedule", top)
		}
	})
	if after := srv.StatsSnapshot(); after.CacheBodyHits-st.CacheBodyHits != 2*hits {
		return fmt.Errorf("%d of %d repeats were byte-index hits", after.CacheBodyHits-st.CacheBodyHits, 2*hits)
	}
	h.set("service.hit_us", median(lat), "us")
	h.set("service.allocs_per_hit", float64(allocs)/hits, "count")
	return nil
}

// attributeKernel runs the kernel list three times at probe parallelism 2
// and three times at 1, after one warm pass.
func attributeKernel(h *harness) error {
	list, err := kernelList(h.seed)
	if err != nil {
		return err
	}
	r2, err := newKernelRunner(list, 2)
	if err != nil {
		return err
	}
	r1, err := newKernelRunner(list, 1)
	if err != nil {
		return err
	}
	pass := func(r *kernelRunner, byHeur map[string]time.Duration, tasks map[string]int) (time.Duration, int, error) {
		var total time.Duration
		comms := 0
		for i, in := range list {
			began := time.Now()
			s, err := r.run(list, i)
			end := time.Now()
			if err != nil {
				return 0, 0, fmt.Errorf("%s: %w", in.name, err)
			}
			h.tr.add("heuristics.run", 0, 0, h.tr.newOp(), 0, began, end)
			total += end.Sub(began)
			comms += s.CommCount()
			if byHeur != nil {
				byHeur[in.heur] += end.Sub(began)
				tasks[in.heur] += in.g.NumNodes()
			}
		}
		return total, comms, nil
	}
	if _, _, err := pass(r2, nil, nil); err != nil {
		return err
	}
	byHeur, tasks := map[string]time.Duration{}, map[string]int{}
	var t1, t2 time.Duration
	var comms int
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for rep := 0; rep < 3; rep++ {
		d, c, err := pass(r2, byHeur, tasks)
		if err != nil {
			return err
		}
		t2 += d
		comms = c
	}
	runtime.ReadMemStats(&b)
	for rep := 0; rep < 3; rep++ {
		d, _, err := pass(r1, nil, nil)
		if err != nil {
			return err
		}
		t1 += d
	}
	all := 0
	for _, heur := range []string{"heft", "ilha", "cpop", "dls", "bil"} {
		h.set("heuristics.tasks_per_s."+heur, float64(tasks[heur])/byHeur[heur].Seconds(), "1/s")
		all += tasks[heur]
	}
	h.set("heuristics.bytes_per_task", float64(b.TotalAlloc-a.TotalAlloc)/float64(all), "bytes")
	h.set("heuristics.par_speedup", t1.Seconds()/t2.Seconds(), "ratio")
	h.set("sched.comms_per_task", float64(comms)/float64(all/3), "ratio") // comms of one pass, all of three
	return nil
}

// attribDeltas is how many session deltas the attribution pass applies.
const attribDeltas = 400

// attributeSession applies the first session deltas to a journal-less
// session.Manager, appends their payloads to journal logs without and
// with fsync, and times Manager.Recover on copies of a journal directory.
func attributeSession(ctx context.Context, h *harness) error {
	specs := sessionSpecs()
	deltas, err := genDeltas(rand.New(rand.NewSource(h.seed)), specs, attribDeltas)
	if err != nil {
		return err
	}
	dirs := make([]string, 3)
	for i := range dirs {
		if dirs[i], err = h.c.tempDir(h.tmp, "attrib-journal-"); err != nil {
			return err
		}
	}
	none, err := journal.Open(journal.Config{Dir: dirs[0], Policy: journal.SyncNone})
	if err != nil {
		return err
	}
	always, err := journal.Open(journal.Config{Dir: dirs[1], Policy: journal.SyncAlways})
	if err != nil {
		return err
	}
	durableStore, err := journal.Open(journal.Config{Dir: dirs[2], Policy: journal.SyncNone})
	if err != nil {
		return err
	}
	plain := session.NewManager(session.Config{})
	durable := session.NewManager(session.Config{Journal: durableStore}) // the journals Recover replays
	params := func(sp sessionSpec) session.Params {
		return session.Params{Graph: sp.g, Platform: platform.Paper(), Heuristic: sp.heur, Model: sched.OnePort, ProbePar: 1}
	}
	ids := make([]string, len(specs))
	durableIDs := make([]string, len(specs))
	logs := make([][2]*journal.Log, len(specs)) // no fsync, fsync
	for i, sp := range specs {
		if ids[i], _, err = plain.Open(ctx, params(sp)); err != nil {
			return err
		}
		if durableIDs[i], _, err = durable.Open(ctx, params(sp)); err != nil {
			return err
		}
		id := fmt.Sprintf("%032x", i)
		for k, st := range []*journal.Store{none, always} {
			if logs[i][k], err = st.Create(id, []byte("{}")); err != nil {
				return err
			}
		}
	}
	defer func() {
		for i, l := range logs {
			l[0].Close()
			l[1].Close()
			durable.Close(durableIDs[i])
		}
	}()

	var deltaUS, appendUS, syncUS []float64
	replayed, tasks := 0, 0
	before := none.StatsSnapshot()
	for _, d := range deltas {
		op, root := h.tr.newOp(), h.tr.reserve()
		pipeStart := time.Now()
		var info *session.RunInfo
		var derr error
		dd := timed(func() { info, derr = plain.Delta(ctx, ids[d.session], session.Delta{Graph: d.ops}) })
		if derr != nil {
			return derr
		}
		h.tr.add("session.delta", 0, root, op, 0, pipeStart, pipeStart.Add(dd))
		deltaUS = append(deltaUS, us(dd))
		replayed += info.Replayed
		tasks += info.Tasks
		for k, name := range []string{"journal.append", "journal.append_fsync"} {
			began := time.Now()
			if err := logs[d.session][k].Append(d.body); err != nil {
				return err
			}
			end := time.Now()
			h.tr.add(name, 0, root, op, 0, began, end)
			if k == 0 {
				appendUS = append(appendUS, us(end.Sub(began)))
			} else {
				syncUS = append(syncUS, us(end.Sub(began)))
			}
		}
		h.tr.add("session.pipeline", root, 0, op, 0, pipeStart, time.Now())
		if _, err := durable.Delta(ctx, durableIDs[d.session], session.Delta{Graph: d.ops}); err != nil {
			return err
		}
	}
	after := none.StatsSnapshot()
	h.set("session.delta_us", median(deltaUS), "us")
	h.set("session.replayed_ratio", float64(replayed)/float64(tasks), "ratio")
	h.set("journal.append_us", median(appendUS), "us")
	h.set("journal.fsync_us", median(syncUS)-median(appendUS), "us")
	h.set("journal.bytes_per_delta", float64(after.AppendedBytes-before.AppendedBytes)/float64(len(deltas)), "bytes")

	// recover the durable manager's sessions from copies of its journals
	var recoverMS []float64
	for rep := 0; rep < attribReps; rep++ {
		dst, err := h.c.tempDir(h.tmp, "attrib-recover-")
		if err != nil {
			return err
		}
		if err := copyJournals(dirs[2], dst, durableIDs); err != nil {
			return err
		}
		st, err := journal.Open(journal.Config{Dir: dst, Policy: journal.SyncNone})
		if err != nil {
			return err
		}
		m := session.NewManager(session.Config{Journal: st})
		op := h.tr.newOp()
		began := time.Now()
		n, failed, err := m.Recover(ctx)
		end := time.Now()
		if err != nil || n != len(specs) || failed != 0 {
			return fmt.Errorf("recovered %d of %d sessions (%d failed, err %v)", n, len(specs), failed, err)
		}
		h.tr.add("session.recover", 0, 0, op, 0, began, end)
		recoverMS = append(recoverMS, ms(end.Sub(began)))
		for _, id := range m.List() {
			m.Close(id)
		}
	}
	h.set("session.recover_ms", median(recoverMS), "ms")
	return nil
}

// copyJournals copies the named sessions' journal files from src to dst.
func copyJournals(src, dst string, ids []string) error {
	for _, id := range ids {
		data, err := os.ReadFile(filepath.Join(src, id+".wal"))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, id+".wal"), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
