// Package cluster implements tracerouter's multi-replica serving tier:
// a replica pool with health probing and backoff ejection (pool.go), a
// pluggable weighted routing policy (scorer.go), a content-addressed
// response cache (cache.go), a queue-depth autoscaler over local traced
// child processes (scaler.go), and the HTTP front tier that ties them
// together (proxy.go).
//
// The cache is the "millions of users" lever: a seeded generation is a
// pure function of (checkpoint digest, class, count, seed, DDIM steps,
// precision), so a repeat seeded request is served from router memory
// without touching a replica at all, byte-identical to what any replica
// would have produced.
package cluster

import (
	"container/list"
	"sync"
	"sync/atomic"

	"trafficdiff/internal/serve"
)

// CacheKey is the full coordinate of one seeded response. Every field
// participates in equality: two deployments serving different
// checkpoints (or the same checkpoint at different DDIM budgets) can
// never alias each other's entries.
type CacheKey struct {
	// Digest is the replica checkpoint digest ("sha256:<hex>") the
	// response was generated from.
	Digest string
	Class  string
	Count  int
	Seed   uint64
	// DDIMSteps is the sampler budget the replica reported for the
	// response (0 = full DDPM).
	DDIMSteps int
	// Precision is the inference weight precision the replica reported
	// ("fp32" or "int8"). int8 bytes differ from fp32 bytes for the same
	// digest and seed, so precision must participate in equality.
	Precision string
	// Format is the response encoding ("pcap" or "csv").
	Format string
}

// CachedResponse is the stored body plus the headers needed to replay
// the replica's answer exactly: Headers[i] is the value of
// serve.GenerationHeaders[i] ("" when the replica sent none).
type CachedResponse struct {
	Body    []byte
	Headers [len(serve.GenerationHeaders)]string
}

type cacheEntry struct {
	key  CacheKey
	resp *CachedResponse
}

// Cache is a bounded LRU over content-addressed responses. Both an
// entry count and a byte budget bound it; inserting past either evicts
// from the cold end.
type Cache struct {
	maxEntries int
	maxBytes   int64

	mu    sync.Mutex
	ll    *list.List                 // MRU at front; guarded by mu
	items map[CacheKey]*list.Element // guarded by mu
	bytes int64                      // guarded by mu

	evictions atomic.Int64
}

// NewCache builds a cache bounded by maxEntries entries and maxBytes
// stored body bytes. Non-positive bounds take generous defaults
// (4096 entries, 256 MiB).
func NewCache(maxEntries int, maxBytes int64) *Cache {
	if maxEntries <= 0 {
		maxEntries = 4096
	}
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	return &Cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      map[CacheKey]*list.Element{},
	}
}

// Get returns the cached response for k, marking it most recently
// used. The returned response is shared — callers must not mutate it.
func (c *Cache) Get(k CacheKey) (*CachedResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).resp, true
}

// Put stores resp under k, evicting cold entries to stay under both
// bounds. A body alone larger than the byte budget is not stored.
func (c *Cache) Put(k CacheKey, resp *CachedResponse) {
	size := int64(len(resp.Body))
	if size > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		// Same key means same content (it is content-addressed); just
		// refresh recency and keep the existing bytes.
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&cacheEntry{key: k, resp: resp})
	c.bytes += size
	for c.ll.Len() > c.maxEntries || c.bytes > c.maxBytes {
		cold := c.ll.Back()
		if cold == nil {
			break
		}
		c.remove(cold)
		c.evictions.Add(1)
	}
}

// Drop removes k, if present (cache-validation mismatch path).
func (c *Cache) Drop(k CacheKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.remove(el)
	}
}

// remove unlinks one entry.
//
//tracelint:holds mu
func (c *Cache) remove(el *list.Element) {
	ent := c.ll.Remove(el).(*cacheEntry)
	delete(c.items, ent.key)
	c.bytes -= int64(len(ent.resp.Body))
}

// CacheStats is a point-in-time snapshot of the cache's counters.
type CacheStats struct {
	Entries   int
	Bytes     int64
	Evictions int64
}

// Stats snapshots the cache.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	entries, bytes := c.ll.Len(), c.bytes
	c.mu.Unlock()
	return CacheStats{
		Entries:   entries,
		Bytes:     bytes,
		Evictions: c.evictions.Load(),
	}
}
