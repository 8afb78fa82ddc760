package sweep

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"

	"oneport/internal/lru"
	"oneport/internal/platform"
)

// jobKeySchema versions the job content encoding; bump on incompatible
// change so results cached by an older worker build can never be served.
const jobKeySchema = "oneport-sweepjob/v1"

// workerCacheSize bounds the worker-side result cache. Entries are a few
// hundred bytes (a Point or a speedup), so even a full cache is small; the
// cap exists so an unbounded stream of distinct sweeps cannot grow worker
// memory forever.
const workerCacheSize = 4096

// jobKey is the content hash identifying a job's result: the SHA-256 of
// (kind, model, figure/testbed, size, B, scan, platform). The job ID is
// deliberately excluded — it names the job's position inside one sweep, not
// its content — so overlapping sweeps (the same figure at a shared size,
// a re-run after a coordinator restart) hit the cache across sweep
// boundaries. The platform hashes as raw cycle-time and link float bits,
// exactly like the scheduling service's canonical request key.
func jobKey(j Job, pl *platform.Platform) [sha256.Size]byte {
	h := sha256.New()
	var scratch [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		h.Write(scratch[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	str(jobKeySchema)
	str(j.Kind)
	str(j.Model)
	str(j.Figure)
	str(j.Testbed)
	u64(uint64(j.Size))
	u64(uint64(j.B))
	u64(uint64(j.Scan))
	u64(uint64(pl.NumProcs()))
	for i := 0; i < pl.NumProcs(); i++ {
		u64(math.Float64bits(pl.CycleTime(i)))
	}
	for q := 0; q < pl.NumProcs(); q++ {
		for r := 0; r < pl.NumProcs(); r++ {
			u64(math.Float64bits(pl.Link(q, r)))
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// resultCache is a fixed-capacity LRU over job results keyed by content
// hash, the worker-side counterpart of the service's response cache (both
// run on the lru.Core mechanics). Stored results are immutable
// (Result.Point is never mutated after insertion); get returns a copy with
// the requesting job's identity spliced in, since the same content can
// appear under different IDs in different sweeps.
type resultCache struct {
	mu   sync.Mutex
	core *lru.Core[[sha256.Size]byte, Result]
}

func newResultCache(max int) *resultCache {
	return &resultCache{core: lru.New[[sha256.Size]byte, Result](max)}
}

// get returns the cached result rebound to the requesting job, or false.
func (c *resultCache) get(key [sha256.Size]byte, job Job) (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, ok := c.core.Get(key)
	if !ok {
		return Result{}, false
	}
	res.Job = job
	return res, true
}

// add inserts a computed result, evicting the least recently used entry
// when full. The caller must not mutate res.Point afterwards.
func (c *resultCache) add(key [sha256.Size]byte, res Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.core.Add(key, res)
	for {
		if _, _, ok := c.core.EvictOver(); !ok {
			return
		}
	}
}
