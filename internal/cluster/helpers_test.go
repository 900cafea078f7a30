package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trafficdiff/internal/serve"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// fakeReplica is an httptest-backed stand-in for one traced instance:
// /readyz?verbose=1 reports configurable coordinates and /v1/generate
// answers with a deterministic body that is a pure function of the
// request plus (digest, ddim, salt) — so two fakes configured alike are
// byte-identical, mimicking seeded-generation purity.
type fakeReplica struct {
	srv *httptest.Server

	mu         sync.Mutex
	digest     string
	ddim       int
	queueDepth int
	readyFail  bool
	genStatus  int // 0 → 200
	retryAfter string
	salt       string
	block      chan struct{} // when non-nil, generate waits for a receive
	truncate   bool          // declare a longer Content-Length than the body sent

	genCalls atomic.Int64
}

func newFakeReplica(t *testing.T, digest string, ddim int) *fakeReplica {
	t.Helper()
	f := &fakeReplica{digest: digest, ddim: ddim}
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", f.handleReadyz)
	mux.HandleFunc("/v1/generate", f.handleGenerate)
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeReplica) url() string { return f.srv.URL }

func (f *fakeReplica) set(mutate func(*fakeReplica)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	mutate(f)
}

func (f *fakeReplica) handleReadyz(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	fail, digest, ddim, depth := f.readyFail, f.digest, f.ddim, f.queueDepth
	f.mu.Unlock()
	if fail {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	if r.URL.Query().Get("verbose") != "1" {
		fmt.Fprintln(w, "ready")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(serve.ReadyStatus{
		Status:           "ready",
		QueueDepth:       depth,
		CheckpointDigest: digest,
		DDIMSteps:        ddim,
	})
}

func (f *fakeReplica) handleGenerate(w http.ResponseWriter, r *http.Request) {
	f.genCalls.Add(1)
	f.mu.Lock()
	status, retryAfter, digest, ddim, salt, block, truncate := f.genStatus, f.retryAfter, f.digest, f.ddim, f.salt, f.block, f.truncate
	f.mu.Unlock()
	if block != nil {
		select {
		case <-block:
		case <-r.Context().Done():
			return
		}
	}
	switch status {
	case 0, http.StatusOK:
	case http.StatusTooManyRequests:
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		http.Error(w, "queue full", status)
		return
	default:
		http.Error(w, "upstream says no", status)
		return
	}
	var req serve.GenerateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	seed := "unseeded"
	if req.Seed != nil {
		seed = strconv.FormatUint(*req.Seed, 10)
	}
	body := fmt.Sprintf("gen|%s|%s|%d|%s|%d|%s|%s", digest, req.Class, req.Count, seed, ddim, req.Format, salt)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Traced-Checkpoint", digest)
	w.Header().Set("X-Traced-DDIM-Steps", strconv.Itoa(ddim))
	if req.Seed != nil {
		w.Header().Set("X-Traced-Seed", seed)
	}
	w.Header().Set("X-Traced-Flows", strconv.Itoa(req.Count))
	if truncate {
		// The server closes the connection once the handler returns
		// short of the declared length, so the client reads a short body.
		w.Header().Set("Content-Length", strconv.Itoa(len(body)+16))
	}
	_, _ = w.Write([]byte(body))
}

// newTestPool builds a fast-probing pool and registers every fake.
func newTestPool(t *testing.T, cfg PoolConfig, reps ...*fakeReplica) *Pool {
	t.Helper()
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 10 * time.Millisecond
	}
	if cfg.BackoffMin == 0 {
		cfg.BackoffMin = 10 * time.Millisecond
	}
	p := NewPool(cfg)
	t.Cleanup(p.Close)
	for _, f := range reps {
		p.Add(f.url())
	}
	return p
}

// newTestRouter serves a Router over the pool and returns its base URL.
func newTestRouter(t *testing.T, p *Pool, cfg Config) (*Router, string) {
	t.Helper()
	rt := NewRouter(p, cfg)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts.URL
}

// postJSON fires one POST /v1/generate and returns status, body, header.
func postJSON(t *testing.T, base, body string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(base+"/v1/generate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := resp.Body.Close(); cerr != nil {
			t.Error(cerr)
		}
	}()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header
}

// fetchMetricsMap decodes the router's /metrics JSON.
func fetchMetricsMap(t *testing.T, base string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := resp.Body.Close(); cerr != nil {
			t.Error(cerr)
		}
	}()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// metricInt pulls a top-level numeric metric.
func metricInt(t *testing.T, m map[string]any, name string) int64 {
	t.Helper()
	v, ok := m[name].(float64)
	if !ok {
		t.Fatalf("metric %q missing or non-numeric: %v", name, m[name])
	}
	return int64(v)
}
