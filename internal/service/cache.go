package service

import (
	"crypto/sha256"
	"sync"

	"oneport/internal/lru"
)

// maxBodyAliases caps how many raw-body hashes one cache entry may be
// reachable through. Equivalent requests can be spelled in unboundedly many
// JSON byte forms (field order, whitespace, model aliases); the cap keeps a
// hostile or sloppy client from growing the alias index without bound while
// still covering every realistic client, which sends one byte form.
const maxBodyAliases = 4

// resultCache is a fixed-capacity LRU over computed responses with two
// indexes: the canonical content hash (CanonicalKey) and the SHA-256 of the
// raw request body bytes. Entries carry both the decoded Response and the
// encoded JSON bytes of its cache-hit form (Cached:true, trailing
// newline), so the serving hot path can answer a repeated request with one
// body hash, one map lookup and one Write — no JSON decode, no
// re-canonicalization, no re-encode. The bytes are encoded once, when the
// entry is inserted, from the same encode as the miss reply. Stored
// responses and encoded bytes are immutable once inserted; readers receive
// the shared storage read-only.
type resultCache struct {
	mu     sync.Mutex
	core   *lru.Core[string, *cacheEntry]
	bodies map[[sha256.Size]byte]string // raw-body hash -> canonical key
}

type cacheEntry struct {
	key    string
	resp   *Response
	enc    []byte              // encoded cache-hit response; nil for streamed sizes
	bodies [][sha256.Size]byte // raw-body aliases pointing at this entry
}

// newResultCache returns an LRU holding up to max entries; max <= 0
// disables caching (every lookup misses, every insert is dropped).
func newResultCache(max int) *resultCache {
	return &resultCache{
		core:   lru.New[string, *cacheEntry](max),
		bodies: make(map[[sha256.Size]byte]string),
	}
}

// get returns a copy of the cached response with Cached set and the
// entry's encoded hit bytes (nil for streamed sizes), or false.
func (c *resultCache) get(key string) (Response, []byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.core.Get(key)
	if !ok {
		return Response{}, nil, false
	}
	resp := *e.resp
	resp.Cached = true
	return resp, e.enc, true
}

// getByBody returns the pre-encoded cache-hit bytes of the entry aliased by
// the given raw-body hash. The returned slice is shared, immutable storage:
// write it, never mutate it.
func (c *resultCache) getByBody(body [sha256.Size]byte) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key, ok := c.bodies[body]
	if !ok {
		return nil, false
	}
	e, ok := c.core.Get(key)
	if !ok || e.enc == nil {
		return nil, false
	}
	return e.enc, true
}

// add inserts (or refreshes) a computed response with its encoded hit
// bytes (nil for streamed sizes), evicting the least recently used entry
// when full. The caller must not mutate resp, its schedule or enc
// afterwards. A refreshed entry drops its body aliases: they were
// registered against the replaced bytes.
func (c *resultCache) add(key string, resp *Response, enc []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.core.Peek(key); ok {
		e.resp, e.enc = resp, enc
		c.dropAliases(e)
		c.core.Add(key, e) // promote
		return
	}
	c.core.Add(key, &cacheEntry{key: key, resp: resp, enc: enc})
	for {
		_, e, ok := c.core.EvictOver()
		if !ok {
			break
		}
		c.dropAliases(e)
	}
}

// alias registers a raw-body hash for key's entry, so repeats of that byte
// spelling are served from the byte index. Entries without encoded bytes,
// and entries already at maxBodyAliases, take no alias.
func (c *resultCache) alias(key string, body [sha256.Size]byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.core.Peek(key)
	if !ok || e.enc == nil {
		return // evicted since it was served, or streamed-size
	}
	if _, aliased := c.bodies[body]; aliased || len(e.bodies) >= maxBodyAliases {
		return
	}
	e.bodies = append(e.bodies, body)
	c.bodies[body] = key
}

// dropAliases removes an entry's raw-body index entries; call with c.mu held.
func (c *resultCache) dropAliases(e *cacheEntry) {
	for _, b := range e.bodies {
		delete(c.bodies, b)
	}
	e.bodies = nil
}

// len reports the current number of cached entries.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.core.Len()
}
