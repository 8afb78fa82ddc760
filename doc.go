// Package oneport is a Go reproduction of "A Realistic Model and an
// Efficient Heuristic for Scheduling with Heterogeneous Processors"
// (Beaumont, Boudet, Robert — IPDPS 2002).
//
// The library implements task-graph scheduling on heterogeneous processors
// under the paper's bi-directional one-port communication model — at any
// instant each processor sends to at most one processor and receives from
// at most one — next to the classical macro-dataflow model, together with:
//
//   - the one-port adaptations of the HEFT and ILHA heuristics (§4) and the
//     literature baselines CPOP, DLS/GDL, BIL and PCT;
//   - the six evaluation testbeds (LU, LAPLACE, STENCIL, FORK-JOIN,
//     DOOLITTLE, LDMt) and the full experiment harness regenerating
//     Figures 7–12 (§5);
//   - the NP-completeness constructions FORK-SCHED and COMM-SCHED (§3 and
//     the appendix) with exact solvers cross-checking both reduction
//     directions;
//   - schedule validators for both models, a decision-replay simulator, and
//     ASCII Gantt rendering;
//   - a scheduling service (internal/service, cmd/schedserve): a concurrent
//     HTTP/JSON server with a bounded worker pool, pooled scheduler scratch,
//     singleflight request coalescing and an LRU result cache that can be
//     replicated across processes (a consistent-hash ring assigns each
//     canonical request key an owner replica; non-owners fill from the owner
//     instead of recomputing — see the -peers flag), plus a sharded sweep
//     coordinator that spreads the experiment harness across worker
//     processes.
//
// # Service quickstart
//
// Start a server (also a sweep worker) and post a scheduling request:
//
//	go run ./cmd/schedserve -addr :8642 -worker &
//	go run ./cmd/schedserve -example lu:10 | curl -s -d @- localhost:8642/schedule
//
// The response carries the validated schedule, its makespan/speedup and the
// canonical cache key; posting the identical request again is a cache hit
// ("cached":true). Run two replicas as one distributed cache — each request
// is computed once fleet-wide, whichever replica receives it:
//
//	go run ./cmd/schedserve -addr :8642 -self http://h1:8642 \
//	    -peers http://h1:8642,http://h2:8642
//
// Shard a figure sweep across two workers and get exactly
// the single-process cmd/experiments numbers:
//
//	go run ./cmd/schedserve -sweep fig8 -sizes quick \
//	    -shards http://host1:8642,http://host2:8642
//
// See DESIGN.md for the system inventory (the "Service layer" section
// documents endpoints, the job protocol, the cache key and the pooling
// invariants), and run go run ./cmd/experiments for paper-versus-measured
// results. Entry points live under cmd/ (onesched, experiments, bsweep,
// graphgen, schedcheck, schedserve) and examples/.
package oneport
