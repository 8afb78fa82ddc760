package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"sync"

	"oneport/internal/graph"
)

// keySchema versions the canonical encoding; bump on incompatible change so
// stale cache entries (or cross-version worker fleets) can never collide.
const keySchema = "oneport-schedreq/v1"

// keyScratch is the pooled canonicalization state of one CanonicalSum call:
// the canonical byte encoding under construction and the edge buffer it
// sorts. Pooling both keeps the steady-state key computation free of
// per-request allocations — the encoding is rebuilt in place and hashed
// with a one-shot sha256.Sum256.
type keyScratch struct {
	buf   []byte
	edges []graph.Edge
}

var keyPool = sync.Pool{New: func() any { return new(keyScratch) }}

// CanonicalSum returns the content hash identifying a request's result: the
// SHA-256 of a canonical binary encoding of (graph, platform, heuristic,
// model, options). Two requests get the same sum iff they describe the same
// scheduling problem:
//
//   - graph edges are sorted by (from, to), so edge insertion order — a
//     construction artifact — does not split the cache;
//   - the platform encodes as raw cycle-time and link-matrix float bits
//     (+Inf wires included), so sparse topologies hash faithfully;
//   - Options.ProbeParallelism is excluded: the server ignores it.
//
// The model string is normalized through Request.normalize before hashing,
// so aliases ("macro" / "macrodataflow") share a key.
func CanonicalSum(r *Request) (sum [sha256.Size]byte) {
	ks := keyPool.Get().(*keyScratch)
	// the release is deferred so even a panicking graph accessor cannot
	// leak the scratch out of the pool (the scratchpair invariant); the
	// grown buffers are stashed back on ks before the hash is taken, so
	// the deferred Put always returns the largest capacity seen
	defer keyPool.Put(ks)
	b := ks.buf[:0]
	u64 := func(v uint64) {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	str := func(s string) {
		u64(uint64(len(s)))
		b = append(b, s...)
	}

	str(keySchema)
	str(r.Heuristic)
	str(r.Model)
	u64(uint64(r.Options.B))
	u64(uint64(r.Options.ScanDepth))

	g := r.Graph
	u64(uint64(g.NumNodes()))
	for v := 0; v < g.NumNodes(); v++ {
		f64(g.Weight(v))
		str(g.Label(v))
	}
	edges := g.EdgesAppend(ks.edges[:0])
	slices.SortFunc(edges, func(a, e graph.Edge) int {
		if a.From != e.From {
			return a.From - e.From
		}
		return a.To - e.To
	})
	u64(uint64(len(edges)))
	for _, e := range edges {
		u64(uint64(e.From))
		u64(uint64(e.To))
		f64(e.Data)
	}

	pl := r.Platform
	u64(uint64(pl.NumProcs()))
	for i := 0; i < pl.NumProcs(); i++ {
		f64(pl.CycleTime(i))
	}
	for q := 0; q < pl.NumProcs(); q++ {
		for rr := 0; rr < pl.NumProcs(); rr++ {
			f64(pl.Link(q, rr))
		}
	}

	ks.buf = b
	ks.edges = edges
	return sha256.Sum256(b)
}

// CanonicalKey is the hex form of CanonicalSum — the cache key exposed in
// Response.Key and used by the result cache's canonical index.
func CanonicalKey(r *Request) string {
	sum := CanonicalSum(r)
	return hex.EncodeToString(sum[:])
}
