package cluster

import (
	"testing"
	"time"
)

func TestPoolProbeEjectReinstate(t *testing.T) {
	rep := newFakeReplica(t, "sha256:aa", 6)
	rep.set(func(f *fakeReplica) { f.queueDepth = 3 })
	p := newTestPool(t, PoolConfig{}, rep)

	waitUntil(t, 5*time.Second, "replica healthy", func() bool { return p.Healthy() == 1 })
	snap := p.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot size %d", len(snap))
	}
	st := snap[0]
	if !st.Healthy || st.CheckpointDigest != "sha256:aa" || st.DDIMSteps != 6 || st.QueueDepth != 3 {
		t.Fatalf("snapshot after probe: %+v", st)
	}

	rep.set(func(f *fakeReplica) { f.readyFail = true })
	waitUntil(t, 5*time.Second, "replica ejected", func() bool { return p.Healthy() == 0 })

	rep.set(func(f *fakeReplica) { f.readyFail = false })
	waitUntil(t, 5*time.Second, "replica reinstated", func() bool { return p.Healthy() == 1 })
}

func TestPoolBackoffDoubles(t *testing.T) {
	p := NewPool(PoolConfig{ProbeInterval: time.Hour, BackoffMin: 250 * time.Millisecond, BackoffMax: 8 * time.Second})
	defer p.Close()
	want := map[int]time.Duration{
		1:  250 * time.Millisecond,
		2:  500 * time.Millisecond,
		3:  time.Second,
		6:  8 * time.Second,
		10: 8 * time.Second, // clamped
	}
	for fails, d := range want {
		if got := p.backoff(fails); got != d {
			t.Errorf("backoff(%d) = %v, want %v", fails, got, d)
		}
	}
}

func TestPoolCacheCoordinatesConsensus(t *testing.T) {
	a := newFakeReplica(t, "sha256:aa", 6)
	b := newFakeReplica(t, "sha256:aa", 6)
	p := newTestPool(t, PoolConfig{}, a, b)
	waitUntil(t, 5*time.Second, "both healthy", func() bool { return p.Healthy() == 2 })

	digest, ddim, ok := p.CacheCoordinates()
	if !ok || digest != "sha256:aa" || ddim != 6 {
		t.Fatalf("consensus coordinates: %q %d %v", digest, ddim, ok)
	}

	// DDIM disagreement breaks consensus even with identical digests.
	b.set(func(f *fakeReplica) { f.ddim = 12 })
	waitUntil(t, 5*time.Second, "ddim disagreement noticed", func() bool {
		_, _, ok := p.CacheCoordinates()
		return !ok
	})

	// Digest disagreement likewise.
	b.set(func(f *fakeReplica) { f.ddim = 6; f.digest = "sha256:bb" })
	waitUntil(t, 5*time.Second, "digest disagreement noticed", func() bool {
		_, _, ok := p.CacheCoordinates()
		return !ok
	})

	// Agreement again restores consensus.
	b.set(func(f *fakeReplica) { f.digest = "sha256:aa" })
	waitUntil(t, 5*time.Second, "agreement restored", func() bool {
		digest, ddim, ok := p.CacheCoordinates()
		return ok && digest == "sha256:aa" && ddim == 6
	})

	// An unidentified replica (no digest) disables caching outright.
	b.set(func(f *fakeReplica) { f.digest = "" })
	waitUntil(t, 5*time.Second, "empty digest noticed", func() bool {
		_, _, ok := p.CacheCoordinates()
		return !ok
	})

	// Ejecting the dissenter restores consensus over the remainder.
	b.set(func(f *fakeReplica) { f.readyFail = true })
	waitUntil(t, 5*time.Second, "consensus restored", func() bool {
		digest, ddim, ok := p.CacheCoordinates()
		return ok && digest == "sha256:aa" && ddim == 6
	})

	// No healthy replicas at all: no coordinates.
	a.set(func(f *fakeReplica) { f.readyFail = true })
	waitUntil(t, 5*time.Second, "no healthy → no coordinates", func() bool {
		_, _, ok := p.CacheCoordinates()
		return !ok
	})
}

func TestPoolAcquireRelease(t *testing.T) {
	p := NewPool(PoolConfig{ProbeInterval: time.Hour, MaxInFlight: 1})
	defer p.Close()
	r := &replica{id: 0, url: "http://x", healthy: true}

	if !p.acquire(r) {
		t.Fatal("acquire on healthy idle replica refused")
	}
	if p.acquire(r) {
		t.Fatal("acquire past MaxInFlight succeeded")
	}
	p.release(r, "web")
	if r.lastClass != "web" {
		t.Fatalf("lastClass = %q after release", r.lastClass)
	}
	if !p.acquire(r) {
		t.Fatal("acquire after release refused")
	}
	p.release(r, "") // empty class must not clobber affinity memory
	if r.lastClass != "web" {
		t.Fatalf("lastClass clobbered: %q", r.lastClass)
	}

	r.healthy = false
	if p.acquire(r) {
		t.Fatal("acquired unhealthy replica")
	}
}

func TestPoolNoteProxyFailureEjects(t *testing.T) {
	p := NewPool(PoolConfig{ProbeInterval: time.Hour, BackoffMin: time.Minute, BackoffMax: time.Minute})
	defer p.Close()
	r := &replica{id: 0, url: "http://x", healthy: true}
	p.mu.Lock()
	p.replicas = append(p.replicas, r)
	p.mu.Unlock()

	p.noteProxyFailure(r)
	st := r.status()
	if st.Healthy || st.Errors != 1 {
		t.Fatalf("replica after proxy failure: %+v", st)
	}
	if r.nextProbe.Before(time.Now().Add(30 * time.Second)) {
		t.Fatalf("nextProbe %v not pushed out by backoff", time.Until(r.nextProbe))
	}
}
