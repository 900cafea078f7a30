package cluster

import (
	"fmt"
	"testing"
)

func testResp(n int) *CachedResponse {
	return &CachedResponse{Body: make([]byte, n)}
}

func testKey(seed uint64) CacheKey {
	return CacheKey{Digest: "sha256:aa", Class: "web", Count: 1, Seed: seed, DDIMSteps: 6, Format: "pcap"}
}

func TestCacheGetPut(t *testing.T) {
	c := NewCache(8, 1<<20)
	k := testKey(1)
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, testResp(10))
	got, ok := c.Get(k)
	if !ok || len(got.Body) != 10 {
		t.Fatalf("Get after Put: ok=%v body=%d", ok, len(got.Body))
	}
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != 10 {
		t.Fatalf("stats: %+v", st)
	}
}

// Every field of CacheKey must participate in identity: responses from
// different checkpoints, DDIM budgets, precisions, classes, counts,
// seeds, or formats may never alias.
func TestCacheKeyDistinctPerField(t *testing.T) {
	base := testKey(1)
	variants := []CacheKey{base}
	for _, mutate := range []func(*CacheKey){
		func(k *CacheKey) { k.Digest = "sha256:bb" },
		func(k *CacheKey) { k.Class = "video" },
		func(k *CacheKey) { k.Count = 2 },
		func(k *CacheKey) { k.Seed = 2 },
		func(k *CacheKey) { k.DDIMSteps = 12 },
		func(k *CacheKey) { k.Precision = "int8" },
		func(k *CacheKey) { k.Format = "csv" },
	} {
		k := base
		mutate(&k)
		variants = append(variants, k)
	}
	c := NewCache(64, 1<<20)
	for i, k := range variants {
		c.Put(k, testResp(i+1))
	}
	if st := c.Stats(); st.Entries != len(variants) {
		t.Fatalf("entries = %d, want %d distinct", st.Entries, len(variants))
	}
	for i, k := range variants {
		got, ok := c.Get(k)
		if !ok || len(got.Body) != i+1 {
			t.Fatalf("variant %d: ok=%v body=%d want %d", i, ok, len(got.Body), i+1)
		}
	}
}

func TestCacheEvictsByEntryCount(t *testing.T) {
	c := NewCache(2, 1<<20)
	c.Put(testKey(1), testResp(1))
	c.Put(testKey(2), testResp(1))
	c.Put(testKey(3), testResp(1))
	if _, ok := c.Get(testKey(1)); ok {
		t.Fatal("coldest entry survived entry-count eviction")
	}
	for _, s := range []uint64{2, 3} {
		if _, ok := c.Get(testKey(s)); !ok {
			t.Fatalf("seed %d evicted unexpectedly", s)
		}
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestCacheEvictsByBytes(t *testing.T) {
	c := NewCache(100, 100)
	c.Put(testKey(1), testResp(60))
	c.Put(testKey(2), testResp(60)) // 120 > 100 → seed 1 evicted
	if _, ok := c.Get(testKey(1)); ok {
		t.Fatal("byte budget not enforced")
	}
	if st := c.Stats(); st.Bytes != 60 || st.Entries != 1 {
		t.Fatalf("stats after byte eviction: %+v", st)
	}
}

func TestCacheRejectsOversizeBody(t *testing.T) {
	c := NewCache(10, 50)
	c.Put(testKey(1), testResp(51))
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("oversize body stored: %+v", st)
	}
}

// Re-putting an existing key refreshes recency without duplicating the
// entry (same key means same content: it is content-addressed).
func TestCachePutRefreshesRecency(t *testing.T) {
	c := NewCache(2, 1<<20)
	c.Put(testKey(1), testResp(1))
	c.Put(testKey(2), testResp(1))
	c.Put(testKey(1), testResp(1)) // 1 becomes MRU
	c.Put(testKey(3), testResp(1)) // evicts 2, not 1
	if _, ok := c.Get(testKey(1)); !ok {
		t.Fatal("refreshed entry evicted")
	}
	if _, ok := c.Get(testKey(2)); ok {
		t.Fatal("cold entry survived")
	}
}

func TestCacheDrop(t *testing.T) {
	c := NewCache(8, 1<<20)
	c.Put(testKey(1), testResp(10))
	c.Drop(testKey(1))
	c.Drop(testKey(2)) // absent: no-op
	if _, ok := c.Get(testKey(1)); ok {
		t.Fatal("entry survived Drop")
	}
	if st := c.Stats(); st.Bytes != 0 || st.Entries != 0 {
		t.Fatalf("stats after Drop: %+v", st)
	}
}

func TestCacheDefaultsBounds(t *testing.T) {
	c := NewCache(0, 0)
	if c.maxEntries != 4096 || c.maxBytes != 256<<20 {
		t.Fatalf("defaults: entries=%d bytes=%d", c.maxEntries, c.maxBytes)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache(32, 1<<20)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				k := testKey(uint64(g*1000 + i%40))
				c.Put(k, testResp(8))
				c.Get(k)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if st := c.Stats(); st.Entries > 32 {
		t.Fatalf("entry bound violated: %+v", st)
	}
}

func TestCacheStatsString(t *testing.T) {
	// Guards the fields the router's expvar gauges read.
	c := NewCache(2, 1<<10)
	c.Put(testKey(1), testResp(4))
	st := c.Stats()
	if s := fmt.Sprintf("%d/%d", st.Entries, st.Bytes); s != "1/4" {
		t.Fatalf("stats = %s, want 1/4", s)
	}
}
