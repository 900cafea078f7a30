package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestMapFailure pins the router's status-mapping table: exhausted
// attempt loops must translate to honest statuses — backpressure stays
// 429 (with the max Retry-After seen), an empty pool is 503, and only
// genuine failures become 502.
func TestMapFailure(t *testing.T) {
	cases := []struct {
		name       string
		fail       routeFailure
		status     int
		retryAfter string
	}{
		{
			name:       "all replicas shed",
			fail:       routeFailure{Healthy: 2, Attempts: 2, Saw429: true, MaxRetryAfter: 7},
			status:     429,
			retryAfter: "7",
		},
		{
			name:       "shed without Retry-After header",
			fail:       routeFailure{Healthy: 1, Attempts: 1, Saw429: true},
			status:     429,
			retryAfter: "1",
		},
		{
			name:       "429 mixed with transport failures is still backpressure",
			fail:       routeFailure{Healthy: 3, Attempts: 3, Saw429: true, MaxRetryAfter: 2, SawTransport: true},
			status:     429,
			retryAfter: "2",
		},
		{
			name:       "no healthy replicas",
			fail:       routeFailure{Healthy: 0, Attempts: 0},
			status:     503,
			retryAfter: "1",
		},
		{
			name:       "healthy but all at the router in-flight bound",
			fail:       routeFailure{Healthy: 2, Attempts: 0},
			status:     429,
			retryAfter: "1",
		},
		{
			name:   "transport failures only",
			fail:   routeFailure{Healthy: 2, Attempts: 2, SawTransport: true},
			status: 502,
		},
	}
	for _, tc := range cases {
		status, ra := mapFailure(tc.fail)
		if status != tc.status || ra != tc.retryAfter {
			t.Errorf("%s: mapFailure(%+v) = (%d, %q), want (%d, %q)",
				tc.name, tc.fail, status, ra, tc.status, tc.retryAfter)
		}
	}
}

func TestRouterProxiesAndCachesSeeded(t *testing.T) {
	a := newFakeReplica(t, "sha256:aa", 6)
	b := newFakeReplica(t, "sha256:aa", 6)
	p := newTestPool(t, PoolConfig{}, a, b)
	waitUntil(t, 5*time.Second, "both healthy", func() bool { return p.Healthy() == 2 })
	_, base := newTestRouter(t, p, Config{})

	req := `{"class":"web","count":2,"seed":42}`
	status, body1, hdr := postJSON(t, base, req)
	if status != 200 || hdr.Get("X-Cache") != "miss" {
		t.Fatalf("first seeded request: status=%d X-Cache=%q", status, hdr.Get("X-Cache"))
	}
	if hdr.Get("X-Cluster-Replica") == "" {
		t.Fatal("miss response lacks X-Cluster-Replica")
	}
	upstream := a.genCalls.Load() + b.genCalls.Load()
	if upstream != 1 {
		t.Fatalf("upstream calls after miss = %d, want 1", upstream)
	}

	status, body2, hdr := postJSON(t, base, req)
	if status != 200 || hdr.Get("X-Cache") != "hit" {
		t.Fatalf("repeat seeded request: status=%d X-Cache=%q", status, hdr.Get("X-Cache"))
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cache hit not byte-identical:\n miss: %q\n hit:  %q", body1, body2)
	}
	if hdr.Get("X-Traced-Checkpoint") != "sha256:aa" || hdr.Get("X-Traced-DDIM-Steps") != "6" ||
		hdr.Get("X-Traced-Precision") != "fp32" {
		t.Fatalf("hit lost generation headers: %v", hdr)
	}
	if got := a.genCalls.Load() + b.genCalls.Load(); got != upstream {
		t.Fatalf("cache hit touched a replica: %d calls, want %d", got, upstream)
	}

	// A different seed is a different coordinate: miss again.
	if _, _, hdr := postJSON(t, base, `{"class":"web","count":2,"seed":43}`); hdr.Get("X-Cache") != "miss" {
		t.Fatalf("different seed served from cache: %q", hdr.Get("X-Cache"))
	}

	m := fetchMetricsMap(t, base)
	if metricInt(t, m, "cache_hits_total") != 1 || metricInt(t, m, "cache_misses_total") != 2 {
		t.Fatalf("cache counters: hits=%d misses=%d",
			metricInt(t, m, "cache_hits_total"), metricInt(t, m, "cache_misses_total"))
	}

	// The key holds the replica's defaulted request: an omitted count
	// and format are the explicit count 1 and "pcap".
	if _, _, hdr := postJSON(t, base, `{"class":"web","seed":7}`); hdr.Get("X-Cache") != "miss" {
		t.Fatalf("first defaulted request: X-Cache=%q, want miss", hdr.Get("X-Cache"))
	}
	if _, _, hdr := postJSON(t, base, `{"class":"web","count":1,"seed":7,"format":"pcap"}`); hdr.Get("X-Cache") != "hit" {
		t.Fatalf("explicit defaults after the defaulted request: X-Cache=%q, want hit", hdr.Get("X-Cache"))
	}
}

func TestRouterUnseededBypassesCache(t *testing.T) {
	a := newFakeReplica(t, "sha256:aa", 6)
	p := newTestPool(t, PoolConfig{}, a)
	waitUntil(t, 5*time.Second, "healthy", func() bool { return p.Healthy() == 1 })
	_, base := newTestRouter(t, p, Config{})

	for i := 0; i < 3; i++ {
		status, _, hdr := postJSON(t, base, `{"class":"web","count":1}`)
		if status != 200 || hdr.Get("X-Cache") != "miss" {
			t.Fatalf("unseeded request %d: status=%d X-Cache=%q", i, status, hdr.Get("X-Cache"))
		}
	}
	if got := a.genCalls.Load(); got != 3 {
		t.Fatalf("unseeded requests reached replica %d times, want 3", got)
	}
	m := fetchMetricsMap(t, base)
	if metricInt(t, m, "cache_bypass_total") != 3 {
		t.Fatalf("cache_bypass_total = %d, want 3", metricInt(t, m, "cache_bypass_total"))
	}
}

// A pool whose replicas disagree on checkpoint digests must never
// cache: entries could alias across configurations.
func TestRouterMixedPoolDisablesCaching(t *testing.T) {
	// Different checkpoints, and the same checkpoint at two output
	// versions (traced appends "/v<N>" to the digest from version 2 on).
	for name, other := range map[string]string{"checkpoint": "sha256:bb", "output-version": "sha256:aa/v2"} {
		t.Run(name, func(t *testing.T) {
			a := newFakeReplica(t, "sha256:aa", 6)
			b := newFakeReplica(t, other, 6)
			p := newTestPool(t, PoolConfig{}, a, b)
			waitUntil(t, 5*time.Second, "both healthy", func() bool { return p.Healthy() == 2 })
			_, base := newTestRouter(t, p, Config{})

			req := `{"class":"web","count":1,"seed":7}`
			for i := 0; i < 2; i++ {
				if _, _, hdr := postJSON(t, base, req); hdr.Get("X-Cache") != "miss" {
					t.Fatalf("request %d cached under mixed pool: %q", i, hdr.Get("X-Cache"))
				}
			}
			if got := a.genCalls.Load() + b.genCalls.Load(); got != 2 {
				t.Fatalf("upstream calls = %d, want 2 (no caching)", got)
			}
		})
	}
}

func TestRouterAll429MapsToBackpressure(t *testing.T) {
	a := newFakeReplica(t, "sha256:aa", 6)
	b := newFakeReplica(t, "sha256:aa", 6)
	a.set(func(f *fakeReplica) { f.genStatus = 429; f.retryAfter = "3" })
	b.set(func(f *fakeReplica) { f.genStatus = 429; f.retryAfter = "7" })
	p := newTestPool(t, PoolConfig{}, a, b)
	waitUntil(t, 5*time.Second, "both healthy", func() bool { return p.Healthy() == 2 })
	_, base := newTestRouter(t, p, Config{})

	status, _, hdr := postJSON(t, base, `{"class":"web","count":1,"seed":1}`)
	if status != 429 {
		t.Fatalf("all-replicas-shedding status = %d, want 429 (never 502)", status)
	}
	if hdr.Get("Retry-After") != "7" {
		t.Fatalf("Retry-After = %q, want the max seen (7)", hdr.Get("Retry-After"))
	}
	if a.genCalls.Load() != 1 || b.genCalls.Load() != 1 {
		t.Fatalf("each replica should be tried once: a=%d b=%d", a.genCalls.Load(), b.genCalls.Load())
	}

	m := fetchMetricsMap(t, base)
	if metricInt(t, m, "mapped_429_total") != 1 {
		t.Fatalf("mapped_429_total = %d, want 1", metricInt(t, m, "mapped_429_total"))
	}
	per429, ok := m["upstream_429_total"].(map[string]any)
	if !ok {
		t.Fatalf("upstream_429_total missing: %v", m["upstream_429_total"])
	}
	for _, f := range []*fakeReplica{a, b} {
		if v, _ := per429[f.url()].(float64); v != 1 {
			t.Fatalf("upstream_429_total[%s] = %v, want 1", f.url(), per429[f.url()])
		}
	}
}

func TestRouter504PassesThroughVerbatim(t *testing.T) {
	a := newFakeReplica(t, "sha256:aa", 6)
	a.set(func(f *fakeReplica) { f.genStatus = 504 })
	p := newTestPool(t, PoolConfig{}, a)
	waitUntil(t, 5*time.Second, "healthy", func() bool { return p.Healthy() == 1 })
	_, base := newTestRouter(t, p, Config{})

	status, _, _ := postJSON(t, base, `{"class":"web","count":1,"seed":1}`)
	if status != 504 {
		t.Fatalf("status = %d, want 504 passthrough", status)
	}
	if got := a.genCalls.Load(); got != 1 {
		t.Fatalf("504 retried (%d calls); the deadline already expired upstream", got)
	}
	m := fetchMetricsMap(t, base)
	if metricInt(t, m, "mapped_504_total") != 1 {
		t.Fatalf("mapped_504_total = %d, want 1", metricInt(t, m, "mapped_504_total"))
	}
}

func TestRouterRetriesPast5xx(t *testing.T) {
	a := newFakeReplica(t, "sha256:aa", 6)
	b := newFakeReplica(t, "sha256:aa", 6)
	a.set(func(f *fakeReplica) { f.genStatus = 500 })
	p := newTestPool(t, PoolConfig{}, a, b)
	waitUntil(t, 5*time.Second, "both healthy", func() bool { return p.Healthy() == 2 })
	_, base := newTestRouter(t, p, Config{})

	status, _, hdr := postJSON(t, base, `{"class":"web","count":1,"seed":1}`)
	if status != 200 {
		t.Fatalf("status = %d, want 200 via failover", status)
	}
	if hdr.Get("X-Cluster-Replica") != b.url() {
		t.Fatalf("served by %q, want the healthy replica %q", hdr.Get("X-Cluster-Replica"), b.url())
	}
	// A replica that answered 500 is alive: counted as an error but not
	// ejected (the probe loop owns health).
	for _, st := range p.Snapshot() {
		if st.URL == a.url() && (!st.Healthy || st.Errors != 1) {
			t.Fatalf("5xx replica state: %+v", st)
		}
	}
}

func TestRouterClientErrorsPassThrough(t *testing.T) {
	a := newFakeReplica(t, "sha256:aa", 6)
	b := newFakeReplica(t, "sha256:aa", 6)
	a.set(func(f *fakeReplica) { f.genStatus = 400 })
	b.set(func(f *fakeReplica) { f.genStatus = 400 })
	p := newTestPool(t, PoolConfig{}, a, b)
	waitUntil(t, 5*time.Second, "both healthy", func() bool { return p.Healthy() == 2 })
	_, base := newTestRouter(t, p, Config{})

	status, _, _ := postJSON(t, base, `{"class":"nope","count":1,"seed":1}`)
	if status != 400 {
		t.Fatalf("status = %d, want 400 passthrough", status)
	}
	if got := a.genCalls.Load() + b.genCalls.Load(); got != 1 {
		t.Fatalf("client error retried: %d upstream calls, want 1", got)
	}
}

func TestRouterTransportFailureFailsOverAndEjects(t *testing.T) {
	a := newFakeReplica(t, "sha256:aa", 6)
	b := newFakeReplica(t, "sha256:aa", 6)
	// Long probe interval: health changes only via explicit kicks, so
	// the dead replica stays "healthy" until the proxy discovers it.
	p := newTestPool(t, PoolConfig{ProbeInterval: time.Hour}, a, b)
	waitUntil(t, 5*time.Second, "both healthy", func() bool {
		p.Kick()
		return p.Healthy() == 2
	})
	_, base := newTestRouter(t, p, Config{})

	a.srv.Close() // replica dies between probes

	status, _, hdr := postJSON(t, base, `{"class":"web","count":1,"seed":1}`)
	if status != 200 {
		t.Fatalf("status = %d, want 200 via failover", status)
	}
	if hdr.Get("X-Cluster-Replica") != b.url() {
		t.Fatalf("served by %q, want survivor %q", hdr.Get("X-Cluster-Replica"), b.url())
	}
	// The transport failure ejects the dead replica immediately, ahead
	// of the probe loop.
	for _, st := range p.Snapshot() {
		if st.URL == a.url() && st.Healthy {
			t.Fatal("dead replica still healthy after transport failure")
		}
	}
}

// A client disconnect mid-proxy makes the upstream attempt fail with a
// canceled context. The replica is not at fault: it must not be
// ejected, and the rest of the pool must not be burned through (and
// ejected in turn) with the same dead context.
func TestRouterClientCancelDoesNotEjectReplicas(t *testing.T) {
	a := newFakeReplica(t, "sha256:aa", 6)
	b := newFakeReplica(t, "sha256:aa", 6)
	block := make(chan struct{})
	defer close(block)
	a.set(func(f *fakeReplica) { f.block = block })
	b.set(func(f *fakeReplica) { f.block = block })
	// Health changes only via explicit kicks, so any ejection observed
	// below came from the proxy path.
	p := newTestPool(t, PoolConfig{ProbeInterval: time.Hour}, a, b)
	waitUntil(t, 5*time.Second, "both healthy", func() bool {
		p.Kick()
		return p.Healthy() == 2
	})
	_, base := newTestRouter(t, p, Config{})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/generate",
		strings.NewReader(`{"class":"web","count":1,"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			_ = resp.Body.Close()
		}
		errCh <- err
	}()
	waitUntil(t, 5*time.Second, "request in flight on a replica", func() bool {
		return a.genCalls.Load()+b.genCalls.Load() == 1
	})
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("canceled request unexpectedly succeeded")
	}
	waitUntil(t, 5*time.Second, "client abort recorded", func() bool {
		return metricInt(t, fetchMetricsMap(t, base), "client_aborts_total") == 1
	})
	if got := p.Healthy(); got != 2 {
		t.Fatalf("healthy = %d after client cancel, want 2 (no ejection)", got)
	}
	if got := a.genCalls.Load() + b.genCalls.Load(); got != 1 {
		t.Fatalf("upstream attempts = %d, want 1 (no retries with a dead context)", got)
	}
}

func TestRouterNoHealthyReplicasIs503(t *testing.T) {
	p := NewPool(PoolConfig{ProbeInterval: time.Hour})
	defer p.Close()
	_, base := newTestRouter(t, p, Config{})

	status, _, hdr := postJSON(t, base, `{"class":"web","count":1,"seed":1}`)
	if status != 503 || hdr.Get("Retry-After") != "1" {
		t.Fatalf("empty pool: status=%d Retry-After=%q, want 503/1", status, hdr.Get("Retry-After"))
	}
	m := fetchMetricsMap(t, base)
	if metricInt(t, m, "rejected_total") != 1 {
		t.Fatalf("rejected_total = %d, want 1", metricInt(t, m, "rejected_total"))
	}
}

func TestRouterInFlightBoundIs429(t *testing.T) {
	a := newFakeReplica(t, "sha256:aa", 6)
	block := make(chan struct{})
	a.set(func(f *fakeReplica) { f.block = block })
	p := newTestPool(t, PoolConfig{MaxInFlight: 1}, a)
	waitUntil(t, 5*time.Second, "healthy", func() bool { return p.Healthy() == 1 })
	_, base := newTestRouter(t, p, Config{})

	firstDone := make(chan int, 1)
	go func() {
		status, _, _ := postJSON(t, base, `{"class":"web","count":1,"seed":1}`)
		firstDone <- status
	}()
	waitUntil(t, 5*time.Second, "first request in flight", func() bool {
		return a.genCalls.Load() == 1
	})

	status, _, hdr := postJSON(t, base, `{"class":"web","count":1,"seed":2}`)
	if status != 429 || hdr.Get("Retry-After") != "1" {
		t.Fatalf("at in-flight bound: status=%d Retry-After=%q, want 429/1", status, hdr.Get("Retry-After"))
	}

	close(block)
	if got := <-firstDone; got != 200 {
		t.Fatalf("first request status = %d, want 200", got)
	}
}

func TestRouterValidateHit(t *testing.T) {
	a := newFakeReplica(t, "sha256:aa", 6)
	p := newTestPool(t, PoolConfig{}, a)
	waitUntil(t, 5*time.Second, "healthy", func() bool { return p.Healthy() == 1 })
	_, base := newTestRouter(t, p, Config{ValidateEvery: 1})

	req := `{"class":"web","count":1,"seed":9}`
	if status, _, _ := postJSON(t, base, req); status != 200 {
		t.Fatal("priming miss failed")
	}

	// Every hit re-proves byte-identity against a live replica.
	status, _, hdr := postJSON(t, base, req)
	if status != 200 || hdr.Get("X-Cache") != "hit-validated" {
		t.Fatalf("validated hit: status=%d X-Cache=%q", status, hdr.Get("X-Cache"))
	}
	if got := a.genCalls.Load(); got != 2 {
		t.Fatalf("validation should touch the replica: %d calls, want 2", got)
	}

	// Perturb the replica's output: the next validation must detect the
	// mismatch, drop the entry, and serve the replica's bytes.
	a.set(func(f *fakeReplica) { f.salt = "drifted" })
	status, body, hdr := postJSON(t, base, req)
	if status != 200 {
		t.Fatalf("mismatch validation status = %d", status)
	}
	if hdr.Get("X-Cache") == "hit" || hdr.Get("X-Cache") == "hit-validated" {
		t.Fatalf("mismatched entry served as a hit: %q", hdr.Get("X-Cache"))
	}
	if !bytes.Contains(body, []byte("drifted")) {
		t.Fatalf("mismatch must serve replica bytes, got %q", body)
	}
	m := fetchMetricsMap(t, base)
	if metricInt(t, m, "cache_validation_mismatches_total") != 1 {
		t.Fatalf("cache_validation_mismatches_total = %d, want 1",
			metricInt(t, m, "cache_validation_mismatches_total"))
	}
}

func TestRouterClassAffinityRouting(t *testing.T) {
	a := newFakeReplica(t, "sha256:aa", 6)
	b := newFakeReplica(t, "sha256:aa", 6)
	p := newTestPool(t, PoolConfig{}, a, b)
	waitUntil(t, 5*time.Second, "both healthy", func() bool { return p.Healthy() == 2 })
	policy, err := ParseScorers("class-affinity:1")
	if err != nil {
		t.Fatal(err)
	}
	// Cache disabled so every request exercises routing.
	_, base := newTestRouter(t, p, Config{Scorers: policy, CacheEntries: -1})

	// Ties break toward the lower id: the first "web" lands on replica
	// 0 and warms it; later "web" requests must stick there.
	for i := 0; i < 3; i++ {
		if status, _, _ := postJSON(t, base, `{"class":"web","count":1,"seed":1}`); status != 200 {
			t.Fatalf("request %d failed", i)
		}
	}
	if a.genCalls.Load() != 3 || b.genCalls.Load() != 0 {
		t.Fatalf("affinity spread: a=%d b=%d, want 3/0", a.genCalls.Load(), b.genCalls.Load())
	}
	// A different class prefers the cold replica over breaking the warm
	// run on replica 0.
	if status, _, _ := postJSON(t, base, `{"class":"video","count":1,"seed":1}`); status != 200 {
		t.Fatal("video request failed")
	}
	if b.genCalls.Load() != 1 {
		t.Fatalf("cross-class request should pick the cold replica: b=%d", b.genCalls.Load())
	}
}

func TestRouterReadyzAndReplicas(t *testing.T) {
	a := newFakeReplica(t, "sha256:aa", 6)
	p := newTestPool(t, PoolConfig{}, a)
	waitUntil(t, 5*time.Second, "healthy", func() bool { return p.Healthy() == 1 })
	rt, base := newTestRouter(t, p, Config{})

	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close() // status-only check
	if resp.StatusCode != 200 {
		t.Fatalf("readyz = %d with a healthy replica", resp.StatusCode)
	}

	resp, err = http.Get(base + "/readyz?verbose=1")
	if err != nil {
		t.Fatal(err)
	}
	var payload struct {
		Status   string          `json:"status"`
		Healthy  int             `json:"healthy_replicas"`
		Replicas []ReplicaStatus `json:"replicas"`
	}
	decodeErr := json.NewDecoder(resp.Body).Decode(&payload)
	_ = resp.Body.Close() // body fully decoded above
	if decodeErr != nil {
		t.Fatal(decodeErr)
	}
	if payload.Status != "ready" || payload.Healthy != 1 || len(payload.Replicas) != 1 {
		t.Fatalf("verbose readyz: %+v", payload)
	}

	// Draining refuses new work with a Retry-After and flips readiness.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	status, _, hdr := postJSON(t, base, `{"class":"web","count":1,"seed":1}`)
	if status != 503 || hdr.Get("Retry-After") != "1" {
		t.Fatalf("draining generate: status=%d Retry-After=%q", status, hdr.Get("Retry-After"))
	}
	resp, err = http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close() // status-only check
	if resp.StatusCode != 503 {
		t.Fatalf("draining readyz = %d, want 503", resp.StatusCode)
	}
}

func TestRouterRejectsBadRequests(t *testing.T) {
	a := newFakeReplica(t, "sha256:aa", 6)
	p := newTestPool(t, PoolConfig{}, a)
	waitUntil(t, 5*time.Second, "healthy", func() bool { return p.Healthy() == 1 })
	_, base := newTestRouter(t, p, Config{})

	if status, _, _ := postJSON(t, base, `{not json`); status != 400 {
		t.Fatalf("malformed body status = %d, want 400", status)
	}
	resp, err := http.Get(base + "/v1/generate")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close() // status-only check
	if resp.StatusCode != 405 {
		t.Fatalf("GET /v1/generate = %d, want 405", resp.StatusCode)
	}
	if got := a.genCalls.Load(); got != 0 {
		t.Fatalf("bad requests reached the replica %d times", got)
	}
}
