// Command schedserve runs the scheduling service and the sharded sweep
// protocol (internal/service, internal/service/sweep).
//
// Serve mode (default) exposes POST /schedule, POST /batch, the scheduling
// -session surface (POST /session, POST /session/{id}/delta, DELETE
// /session/{id}; sized by -max-sessions and -session-ttl, replica-local),
// GET /healthz, GET /stats and GET /metrics (the same counters in
// Prometheus text format); -worker additionally mounts the sweep worker
// endpoint POST /sweep/run so the process can take shards from a
// coordinator:
//
//	schedserve -addr :8642 -pool 8 -cache 1024
//	schedserve -addr :8643 -worker
//
// -admission puts a deadline- and priority-aware admission queue in front
// of the compute pool: every cold run is cost-estimated (task count ×
// heuristic weight) and queued, shed with 503 + a drain-rate Retry-After
// when the estimated wait exceeds -queue-budget (default 2s) or the
// client's deadline, and subject to a brownout ladder that sheds the
// lowest-priority classes first as the queue deepens (batch/sweep, then
// cold expensive, then cold cheap — cache hits and session deltas always
// serve). -tenant-quotas assigns per-tenant (X-API-Key header) token-bucket
// rate limits, concurrency caps and fair-share weights as a JSON object;
// tenants not named get the unlimited default:
//
//	schedserve -admission -queue-budget 3s \
//	  -tenant-quotas '{"acme":{"rate":5000,"burst":10000,"max_concurrent":2,"weight":2}}'
//
// -peers joins the replica into a distributed encoded-response cache: a
// consistent-hash ring maps each canonical request key to one owner
// replica, and a replica that misses locally on a key it does not own asks
// the owner (POST /cache/peer) before computing, so the fleet runs each
// distinct request once. Every replica must be started with the SAME -peers
// list (it may include the replica itself) plus -self naming its own URL in
// that list; a replica whose owner peer is down computes locally until the
// peer recovers:
//
//	schedserve -addr :8642 -self http://h1:8642 -peers http://h1:8642,http://h2:8642
//	schedserve -addr :8642 -self http://h2:8642 -peers http://h1:8642,http://h2:8642
//
// -admin-token enables the ring admin endpoints (GET/POST /ring, bearer
// auth), through which an operator pushes new membership epochs to a live
// fleet — replicas can join or leave without a restart, and relays routed
// under an older epoch are rejected rather than mis-served. -timeout caps
// each compute; runs that exceed it answer 503 with Retry-After. A -worker
// replica that is also a ring member fills cold sweep jobs from the job
// key's owning worker through the same ring and circuit breakers.
//
// -session-journal-dir makes sessions durable: the open and every acked
// delta are write-ahead-journaled (length-prefixed, checksummed records;
// -session-fsync picks always/none), and a restarted replica replays the
// directory back into byte-identical sessions before /readyz reports
// ready. On SIGINT/SIGTERM the server first syncs every journal and hands
// its live sessions to each id's ring owner (POST /session/peer/import on
// the survivors; requests for moved sessions answer 307 + X-Session-Owner
// so clients re-pin), then stops accepting connections and drains
// in-flight runs for up to -drain before exiting.
//
// Coordinator mode feeds a figure sweep or a B-sweep to running workers
// with work-stealing dispatch (each worker pulls the next job as it
// finishes the last; failed jobs requeue onto the survivors) and prints the
// merged result — the same numbers, in the same table, as the
// single-process cmd/experiments and cmd/bsweep runs:
//
//	schedserve -sweep fig8 -sizes quick -shards http://h1:8642,http://h2:8642
//	schedserve -bsweep lu -size 60 -bs 1,2,4,38 -shards http://h1:8642
//
// -example emits a ready-to-POST request JSON for a testbed instance, for
// smoke tests and quickstarts:
//
//	schedserve -example lu:10 | curl -s -d @- localhost:8642/schedule
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"oneport/internal/cli"
	"oneport/internal/exp"
	"oneport/internal/platform"
	"oneport/internal/service"
	"oneport/internal/service/admit"
	"oneport/internal/service/journal"
	"oneport/internal/service/sweep"
	"oneport/internal/testbeds"
)

func main() {
	var (
		addr     = flag.String("addr", ":8642", "listen address (serve mode)")
		pool     = flag.Int("pool", 0, "worker pool size (0: GOMAXPROCS)")
		cacheSz  = flag.Int("cache", 256, "LRU result-cache entries (negative disables)")
		worker   = flag.Bool("worker", false, "also serve the sweep worker endpoint /sweep/run")
		peers    = flag.String("peers", "", "comma list of ALL replica base URLs forming the distributed cache ring (same list on every replica)")
		self     = flag.String("self", "", "this replica's base URL within -peers")
		admin    = flag.String("admin-token", "", "bearer token for the ring admin endpoints GET/POST /ring (empty disables them)")
		timeout  = flag.Duration("timeout", 0, "per-request compute deadline; exceeded runs answer 503 (0 disables)")
		drain    = flag.Duration("drain", 30*time.Second, "in-flight drain timeout on SIGINT/SIGTERM")
		maxSess  = flag.Int("max-sessions", 0, "scheduling-session table capacity (0: default 256)")
		sessTTL  = flag.Duration("session-ttl", 0, "idle TTL before a session may be evicted (0: default 15m; negative: never)")
		sessDir  = flag.String("session-journal-dir", "", "directory for per-session write-ahead journals; sessions survive crashes and restarts (empty: volatile sessions)")
		sessSync = flag.String("session-fsync", "always", "journal fsync policy: always (acked deltas survive power loss) or none (page cache only; requires -session-journal-dir)")

		admission    = flag.Bool("admission", false, "enable admission control: deadline-aware queueing, per-tenant quotas, brownout ladder")
		queueBudget  = flag.Duration("queue-budget", 0, "max estimated admission-queue wait before shedding (0: default 2s; requires -admission)")
		tenantQuotas = flag.String("tenant-quotas", "", `per-tenant quota JSON, e.g. '{"acme":{"rate":5000,"max_concurrent":2,"weight":2}}' (requires -admission)`)

		sweepFig  = flag.String("sweep", "", "coordinator mode: shard this figure (fig7..fig12) across -shards")
		bsweepTb  = flag.String("bsweep", "", "coordinator mode: shard a B-sweep on this testbed across -shards")
		shards    = flag.String("shards", "", "comma list of worker base URLs for coordinator mode")
		sizesSpec = flag.String("sizes", "quick", `figure sweep sizes: "quick", "paper" or a comma list`)
		size      = flag.Int("size", 60, "problem size for -bsweep")
		bsSpec    = flag.String("bs", "", "comma list of B values for -bsweep (default 1..perfect-balance count)")
		scanDepth = flag.Int("scan", 0, "ILHA Step-1 scan depth for -bsweep")
		modelName = flag.String("model", "oneport", "communication model")

		example = flag.String("example", "", `print a request JSON for "testbed:size" (e.g. lu:10) and exit`)
	)
	flag.Parse()

	var err error
	switch {
	case *example != "":
		err = printExample(*example, *modelName)
	case *sweepFig != "":
		err = coordinateFigure(*sweepFig, *sizesSpec, *modelName, *shards)
	case *bsweepTb != "":
		err = coordinateBSweep(*bsweepTb, *size, *bsSpec, *scanDepth, *modelName, *shards)
	default:
		var admCfg *admit.Config
		admCfg, err = admissionConfig(*admission, *queueBudget, *tenantQuotas)
		var jstore *journal.Store
		if err == nil {
			jstore, err = journalStore(*sessDir, *sessSync)
		}
		if err == nil {
			err = serve(*addr, *pool, *cacheSz, *worker, *self, *peers, *admin, *timeout, *drain, *maxSess, *sessTTL, admCfg, jstore)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedserve:", err)
		os.Exit(1)
	}
}

// journalStore resolves the session-journal flags: nil when no directory
// is given, an error when -session-fsync is tuned without one.
func journalStore(dir, fsync string) (*journal.Store, error) {
	pol, err := journal.ParsePolicy(fsync)
	if err != nil {
		return nil, err
	}
	if dir == "" {
		if pol != journal.SyncAlways {
			return nil, fmt.Errorf("-session-fsync requires -session-journal-dir")
		}
		return nil, nil
	}
	return journal.Open(journal.Config{Dir: dir, Policy: pol})
}

// admissionConfig resolves the admission flags: nil when disabled, an
// error when quota/budget flags are set without -admission.
func admissionConfig(enabled bool, queueBudget time.Duration, quotaSpec string) (*admit.Config, error) {
	if !enabled {
		if queueBudget != 0 || quotaSpec != "" {
			return nil, fmt.Errorf("-queue-budget and -tenant-quotas require -admission")
		}
		return nil, nil
	}
	cfg := &admit.Config{QueueBudget: queueBudget}
	if quotaSpec != "" {
		dec := json.NewDecoder(strings.NewReader(quotaSpec))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cfg.Quotas); err != nil {
			return nil, fmt.Errorf("-tenant-quotas: %w", err)
		}
	}
	return cfg, nil
}

func serve(addr string, pool, cacheSz int, worker bool, self, peers, adminToken string, timeout, drain time.Duration, maxSessions int, sessionTTL time.Duration, admCfg *admit.Config, jstore *journal.Store) error {
	var peerList []string
	if peers != "" {
		if self == "" {
			return fmt.Errorf("-peers needs -self (this replica's URL within the peer list)")
		}
		var err error
		if peerList, err = parseList(peers); err != nil {
			return fmt.Errorf("-peers: %w", err)
		}
	}
	srv := service.New(service.Config{
		PoolSize: pool, CacheSize: cacheSz,
		Self: self, Peers: peerList,
		AdminToken: adminToken, RequestTimeout: timeout,
		MaxSessions: maxSessions, SessionTTL: sessionTTL,
		SessionJournal: jstore,
		Admission:      admCfg,
	})
	if jstore != nil {
		// replay journaled sessions concurrently with serving: /readyz
		// stays not-ready until the replay finishes, so load balancers
		// hold traffic while pinned ids are still being rebuilt
		go func() {
			recovered, failed, err := srv.RecoverSessions(context.Background())
			if err != nil {
				log.Printf("schedserve: session recovery failed: %v", err)
				return
			}
			if recovered > 0 || failed > 0 {
				log.Printf("schedserve: recovered %d journaled sessions (%d failed)", recovered, failed)
			}
		}()
	}
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	role := "scheduler"
	if worker {
		var fleet *sweep.Fleet
		if self != "" {
			// share the service's live ring and relay with the sweep
			// worker, so cold jobs fill from their owning worker and both
			// paths agree on peer health and membership epoch
			fleet = &sweep.Fleet{Owner: srv.RingOwner, Epoch: srv.RingEpoch, Relay: srv.Relay()}
		}
		// shard traffic is Background class on the same slots and brownout
		// ladder as cold /schedule runs (nil when admission is off)
		mux.Handle("/sweep/", sweep.NewWorker(fleet, srv.Admission()).Handler())
		role = "scheduler+sweep-worker"
	}
	if admCfg != nil {
		role += ", admission control on"
	}
	if n := srv.StatsSnapshot().Peers; n > 0 {
		role = fmt.Sprintf("%s, cache ring of %d replicas", role, n)
	}
	log.Printf("schedserve: %s listening on %s", role, addr)
	hs := &http.Server{
		Addr:              addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// drain on SIGINT/SIGTERM: stop accepting, let in-flight scheduler runs
	// finish writing instead of dying mid-response
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop() // restore default handling: a second signal kills immediately
		sctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		// flush+sync journals and hand live sessions to their ring owners
		// BEFORE closing the listener: the handoffs need the survivors
		// reachable, and in-flight deltas finish or 307 while it runs
		if moved, kept := srv.DrainSessions(sctx); moved > 0 || kept > 0 {
			log.Printf("schedserve: session handoff: %d moved to ring owners, %d kept journaled", moved, kept)
		}
		log.Printf("schedserve: shutdown signal; draining %d in-flight runs (timeout %v)",
			srv.StatsSnapshot().InFlight, drain)
		if err := hs.Shutdown(sctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		log.Printf("schedserve: drained cleanly")
		return nil
	}
}

// parseList splits a comma list of base URLs, dropping empty items.
func parseList(spec string) ([]string, error) {
	var out []string
	for _, s := range strings.Split(spec, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty URL list %q", spec)
	}
	return out, nil
}

func parseShards(spec string) ([]string, error) {
	out, err := parseList(spec)
	if err != nil {
		return nil, fmt.Errorf("coordinator mode needs -shards url1,url2,...")
	}
	return out, nil
}

func coordinateFigure(figID, sizesSpec, modelName, shards string) error {
	workers, err := parseShards(shards)
	if err != nil {
		return err
	}
	fig, err := exp.FigureByID(figID)
	if err != nil {
		return err
	}
	model, err := cli.ParseModel(modelName)
	if err != nil {
		return err
	}
	sizes, err := exp.ParseSizes(sizesSpec)
	if err != nil {
		return err
	}

	co := &sweep.Coordinator{Workers: workers}
	jobs := sweep.FigureJobs(fig, modelName, sizes)
	start := time.Now()
	results, err := co.Run(context.Background(), nil, jobs)
	if err != nil {
		return err
	}
	series, err := sweep.MergeFigure(fig, model, results, len(jobs))
	if err != nil {
		return err
	}
	fmt.Printf("sharded across %d workers in %v (%d chunks, %d requeued, %d worker cache hits, %d ring fills)\n",
		len(workers), time.Since(start).Round(time.Millisecond),
		co.Stats.Chunks, co.Stats.Requeues, co.Stats.CacheHits, co.Stats.RingFills)
	fmt.Print(series.Table())
	return nil
}

func coordinateBSweep(testbed string, size int, bsSpec string, scanDepth int, modelName, shards string) error {
	workers, err := parseShards(shards)
	if err != nil {
		return err
	}
	if _, err := cli.ParseModel(modelName); err != nil {
		return err
	}
	var bs []int
	if bsSpec == "" {
		bs, err = exp.DefaultBs(platform.Paper())
	} else {
		bs, err = cli.ParseInts(bsSpec)
	}
	if err != nil {
		return err
	}

	co := &sweep.Coordinator{Workers: workers}
	jobs := sweep.BSweepJobs(testbed, size, modelName, scanDepth, bs)
	results, err := co.Run(context.Background(), nil, jobs)
	if err != nil {
		return err
	}
	speedups, err := sweep.MergeBSweep(results, len(jobs))
	if err != nil {
		return err
	}

	sorted := append([]int(nil), bs...)
	sort.Ints(sorted)
	fmt.Printf("%s size %d, %s model, scan depth %d — sharded across %d workers\n",
		testbed, size, modelName, scanDepth, len(workers))
	fmt.Printf("%6s %12s\n", "B", "speedup")
	bestB, bestSp := sorted[0], speedups[sorted[0]]
	for _, b := range sorted {
		fmt.Printf("%6d %12.4f\n", b, speedups[b])
		if speedups[b] > bestSp {
			bestB, bestSp = b, speedups[b]
		}
	}
	fmt.Printf("best B = %d (speedup %.4f)\n", bestB, bestSp)
	return nil
}

func printExample(spec, modelName string) error {
	name, sizeStr, ok := strings.Cut(spec, ":")
	if !ok {
		return fmt.Errorf("-example wants testbed:size, got %q", spec)
	}
	n, err := strconv.Atoi(sizeStr)
	if err != nil {
		return fmt.Errorf("-example size %q: %w", sizeStr, err)
	}
	g, err := testbeds.ByName(name, n, exp.CommRatio)
	if err != nil {
		return err
	}
	req := service.Request{
		Graph:     g,
		Platform:  platform.Paper(),
		Heuristic: "ilha",
		Model:     modelName,
		Options:   service.Options{B: 4},
	}
	data, err := json.MarshalIndent(req, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(data))
	return err
}
