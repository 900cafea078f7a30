package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trafficdiff/internal/core"
	"trafficdiff/internal/flow"
	"trafficdiff/internal/nprint"
	"trafficdiff/internal/packet"
	"trafficdiff/internal/pcap"
	"trafficdiff/internal/workload"
)

// fakeEngine is a controllable Engine: an optional gate blocks each
// generation between admission and completion until the test releases
// it (or the request's context expires), and every completed call's
// seed batch is recorded so tests can assert what reached the engine.
type fakeEngine struct {
	classes []string
	gate    chan struct{}
	delay   time.Duration
	// failErr, when set, makes every generation fail with it after
	// admission — the handler's 500 path.
	failErr  error
	inFlight atomic.Int64
	admitted atomic.Int64

	mu    sync.Mutex
	calls [][]uint64
}

func (g *fakeEngine) Classes() []string { return append([]string(nil), g.classes...) }

func (g *fakeEngine) DDIMSteps() int { return 0 }

func (g *fakeEngine) Stats() core.EngineStats {
	return core.EngineStats{FlowsAdmitted: uint64(g.admitted.Load())}
}

func (g *fakeEngine) Generate(ctx context.Context, class string, seeds []uint64, onAdmit func()) (*core.GenerateResult, error) {
	g.inFlight.Add(1)
	defer g.inFlight.Add(-1)
	g.admitted.Add(int64(len(seeds)))
	if onAdmit != nil {
		onAdmit()
	}
	if g.gate != nil {
		select {
		case <-g.gate:
		case <-ctx.Done():
			// Mirrors the real engine: an expired request's flows are
			// retired at the boundary, no output is produced.
			return nil, ctx.Err()
		}
	}
	if g.delay > 0 {
		time.Sleep(g.delay)
	}
	if g.failErr != nil {
		return nil, g.failErr
	}
	g.mu.Lock()
	g.calls = append(g.calls, append([]uint64(nil), seeds...))
	g.mu.Unlock()
	res := &core.GenerateResult{}
	for _, s := range seeds {
		data := make([]byte, 16)
		binary.BigEndian.PutUint64(data, s)
		res.Flows = append(res.Flows, &flow.Flow{
			Label:   class,
			Packets: []*packet.Packet{{Timestamp: time.Unix(0, 0).UTC(), Data: data}},
		})
		res.Matrices = append(res.Matrices, nprint.NewMatrix(1))
	}
	return res, nil
}

func (g *fakeEngine) callSizes() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	sizes := make([]int, len(g.calls))
	for i, c := range g.calls {
		sizes[i] = len(c)
	}
	return sizes
}

// post fires one generate request and returns status, body and header.
func post(t *testing.T, url string, body string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(url+"/v1/generate", "application/json", bytes.NewReader([]byte(body)))
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

// metricsRaw fetches /metrics as the raw decoded JSON, including the
// nested per-class histogram maps.
func metricsRaw(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := resp.Body.Close(); cerr != nil {
			t.Error(cerr)
		}
	}()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	return raw
}

// metricsSnapshot fetches /metrics and keeps the scalar series.
func metricsSnapshot(t *testing.T, url string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for k, v := range metricsRaw(t, url) {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out
}

// classCounter digs a per-class entry out of a nested histogram map.
func classCounter(t *testing.T, raw map[string]any, series, class string) float64 {
	t.Helper()
	m, ok := raw[series].(map[string]any)
	if !ok {
		t.Fatalf("metric %q missing or not a map: %T", series, raw[series])
	}
	f, ok := m[class].(float64)
	if !ok {
		t.Fatalf("metric %q has no numeric entry for class %q: %v", series, class, m)
	}
	return f
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func shutdownServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestGateSemantics(t *testing.T) {
	g := newGate(1)
	if got := g.acquire(); got != gateOK {
		t.Fatalf("first acquire = %v, want gateOK", got)
	}
	if got := g.acquire(); got != gateFull {
		t.Fatalf("acquire beyond limit = %v, want gateFull", got)
	}
	g.release()
	if got := g.acquire(); got != gateOK {
		t.Fatalf("acquire after release = %v, want gateOK", got)
	}
	g.close()
	g.close() // idempotent
	if got := g.acquire(); got != gateClosed {
		t.Fatalf("acquire after close = %v, want gateClosed", got)
	}
	if g.depth() != 1 {
		t.Fatalf("depth = %d, want 1 (held slot survives close)", g.depth())
	}

	// After close, wait blocks until the last held slot is released.
	waited := make(chan error, 1)
	go func() { waited <- g.wait(context.Background()) }()
	select {
	case err := <-waited:
		t.Fatalf("wait returned %v with a slot still held", err)
	case <-time.After(20 * time.Millisecond):
	}
	g.release()
	if err := <-waited; err != nil {
		t.Fatalf("wait after the last release = %v, want nil", err)
	}

	// wait returns the context's error when draining outlives it.
	held := newGate(1)
	held.acquire()
	held.close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := held.wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wait past the deadline = %v, want %v", err, context.DeadlineExceeded)
	}

	// A gate with no limit never reports full.
	open := newGate(0)
	for i := 0; i < 1000; i++ {
		if got := open.acquire(); got != gateOK {
			t.Fatalf("acquire %d on an unlimited gate = %v, want gateOK", i, got)
		}
	}
}

// TestCheckpointCoordinate pins the checkpoint identity a replica
// reports: the bare digest at output version 1, "<digest>/v<N>" from
// version 2 on, and empty for an unidentified replica at any version.
func TestCheckpointCoordinate(t *testing.T) {
	cases := []struct {
		digest  string
		version int
		want    string
	}{
		{"sha256:ab", 1, "sha256:ab"},
		{"sha256:ab", 2, "sha256:ab/v2"},
		{"", 1, ""},
		{"", 2, ""},
	}
	for _, c := range cases {
		if got := checkpointCoordinate(c.digest, c.version); got != c.want {
			t.Errorf("checkpointCoordinate(%q, %d) = %q, want %q", c.digest, c.version, got, c.want)
		}
	}
}

// TestGateFull429 fills the admission gate with requests blocked
// inside the engine and checks the overflow request is refused
// immediately with 429 + Retry-After while every admitted request
// still completes.
func TestGateFull429(t *testing.T) {
	gate := make(chan struct{})
	eng := &fakeEngine{classes: []string{"amazon"}, gate: gate}
	s := NewWithEngine(eng, Config{QueueDepth: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer shutdownServer(t, s)
	defer close(gate)

	replies := make(chan int, 4)
	launch := func() {
		go func() {
			code, _, _ := post(t, ts.URL, `{"class":"amazon"}`)
			replies <- code
		}()
	}
	launch()
	launch()
	waitFor(t, "both requests inside the engine", func() bool { return eng.inFlight.Load() == 2 })

	// The gate is at capacity: the next request must bounce, not block.
	code, body, hdr := post(t, ts.URL, `{"class":"amazon"}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d body %q, want 429", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	m := metricsSnapshot(t, ts.URL)
	if m["rejected_total"] < 1 {
		t.Fatalf("rejected_total = %v, want >= 1", m["rejected_total"])
	}
	if m["inflight_requests"] != 2 {
		t.Fatalf("inflight_requests = %v, want 2", m["inflight_requests"])
	}

	gate <- struct{}{}
	gate <- struct{}{}
	for i := 0; i < 2; i++ {
		if code := <-replies; code != http.StatusOK {
			t.Fatalf("admitted request finished with %d, want 200", code)
		}
	}
}

// TestDeadlineExpiry checks that a request whose deadline passes while
// mid-generation gets 504 and its flows never produce output: the
// engine answers with the context error at the next step boundary
// instead of finishing the generation as dead work.
func TestDeadlineExpiry(t *testing.T) {
	gate := make(chan struct{})
	eng := &fakeEngine{classes: []string{"amazon"}, gate: gate}
	s := NewWithEngine(eng, Config{QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer shutdownServer(t, s)
	defer close(gate)

	code, body, _ := post(t, ts.URL, `{"class":"amazon","count":2,"timeout_ms":50}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("expired request: status %d body %q, want 504", code, body)
	}
	m := metricsSnapshot(t, ts.URL)
	if m["deadline_expired_total"] != 1 {
		t.Fatalf("deadline_expired_total = %v, want 1", m["deadline_expired_total"])
	}

	// A fresh request on the drained gate still works.
	done := make(chan int, 1)
	go func() {
		code, _, _ := post(t, ts.URL, `{"class":"amazon"}`)
		done <- code
	}()
	gate <- struct{}{}
	if c := <-done; c != http.StatusOK {
		t.Fatalf("follow-up request finished with %d", c)
	}
	// Only the follow-up completed a generation; the expired request's
	// flows were retired without output.
	if sizes := eng.callSizes(); len(sizes) != 1 || sizes[0] != 1 {
		t.Fatalf("completed generations = %v, want exactly [1]", sizes)
	}
}

// TestContinuousAdmission is the head-of-line regression test for the
// continuous-batching rewrite: with no worker pool between the handler
// and the engine, a burst of requests is all inside the engine at
// once — none serialized behind a busy worker or a closed batch.
func TestContinuousAdmission(t *testing.T) {
	gate := make(chan struct{})
	eng := &fakeEngine{classes: []string{"amazon"}, gate: gate}
	s := NewWithEngine(eng, Config{QueueDepth: 16})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer shutdownServer(t, s)
	defer close(gate)

	const n = 4
	replies := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			code, _, _ := post(t, ts.URL, fmt.Sprintf(`{"class":"amazon","count":%d}`, 1+i%2))
			replies <- code
		}(i)
	}
	// The old pipeline held all but Workers requests in a queue here;
	// continuous admission has the whole burst denoising concurrently.
	waitFor(t, "all requests inside the engine at once", func() bool { return eng.inFlight.Load() == n })

	raw := metricsRaw(t, ts.URL)
	if got := classCounter(t, raw, "admission_wait_ms_count", "amazon"); got != n {
		t.Fatalf(`admission_wait_ms_count["amazon"] = %v, want %d`, got, n)
	}
	if sum := classCounter(t, raw, "admission_wait_ms_sum", "amazon"); sum < 0 {
		t.Fatalf(`admission_wait_ms_sum["amazon"] = %v, want >= 0`, sum)
	}
	if m := metricsSnapshot(t, ts.URL); m["flows_admitted_total"] < n {
		t.Fatalf("flows_admitted_total = %v, want >= %d", m["flows_admitted_total"], n)
	}

	for i := 0; i < n; i++ {
		gate <- struct{}{}
	}
	for i := 0; i < n; i++ {
		if code := <-replies; code != http.StatusOK {
			t.Fatalf("request finished with %d", code)
		}
	}
}

// TestDrainOnShutdown admits a burst of slow requests, then checks
// Shutdown completes them all before returning and that the server
// refuses new work while draining.
func TestDrainOnShutdown(t *testing.T) {
	eng := &fakeEngine{classes: []string{"amazon"}, delay: 30 * time.Millisecond}
	s := NewWithEngine(eng, Config{QueueDepth: 16})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 6
	replies := make(chan int, n)
	for i := 0; i < n; i++ {
		go func() {
			code, _, _ := post(t, ts.URL, `{"class":"amazon"}`)
			replies <- code
		}()
	}
	waitFor(t, "all requests admitted", func() bool {
		return metricsSnapshot(t, ts.URL)["accepted_total"] == n
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Every admitted request completed during the drain.
	for i := 0; i < n; i++ {
		if code := <-replies; code != http.StatusOK {
			t.Fatalf("in-flight request finished with %d during drain", code)
		}
	}
	// New work is refused while draining.
	code, _, hdr := post(t, ts.URL, `{"class":"amazon"}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: status %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After header")
	}
	if rc, _, _ := get(t, ts.URL+"/readyz"); rc != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", rc)
	}
	if rc, _, _ := get(t, ts.URL+"/healthz"); rc != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200 (process is alive)", rc)
	}
	waitFor(t, "all completions recorded", func() bool {
		return metricsSnapshot(t, ts.URL)["completed_total"] == n
	})
	m := metricsSnapshot(t, ts.URL)
	if m["latency_ms_count"] != n || m["latency_ms_sum"] <= 0 {
		t.Fatalf("latency counters = %v/%v, want count %d with positive sum",
			m["latency_ms_count"], m["latency_ms_sum"], n)
	}
}

func get(t *testing.T, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
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

// TestRequestValidation covers the 4xx surface.
func TestRequestValidation(t *testing.T) {
	eng := &fakeEngine{classes: []string{"amazon"}}
	s := NewWithEngine(eng, Config{MaxFlowsPerRequest: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer shutdownServer(t, s)

	cases := []struct {
		body string
		want int
	}{
		{`{"class":"nope"}`, http.StatusBadRequest},
		{`{"class":"amazon","count":5}`, http.StatusBadRequest},
		{`{"class":"amazon","count":-1}`, http.StatusBadRequest},
		{`{"class":"amazon","format":"exe"}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if code, _, _ := post(t, ts.URL, c.body); code != c.want {
			t.Errorf("body %q: status %d, want %d", c.body, code, c.want)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/generate")
	if err != nil {
		t.Fatal(err)
	}
	if cerr := resp.Body.Close(); cerr != nil {
		t.Error(cerr)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/generate = %d, want 405", resp.StatusCode)
	}
}

// trainSynth fine-tunes a synthesizer on the standard test workload.
func trainSynth(cfg core.Config, classes []string) (*core.Synthesizer, error) {
	s, err := core.New(cfg, classes)
	if err != nil {
		return nil, err
	}
	ds, err := workload.Generate(workload.Config{
		Seed: 11, FlowsPerClass: 4, Only: classes, MaxPacketsPerFlow: cfg.Rows,
	})
	if err != nil {
		return nil, err
	}
	byClass := map[string][]*flow.Flow{}
	for _, f := range ds.Flows {
		byClass[f.Label] = append(byClass[f.Label], f)
	}
	if _, err := s.FineTune(byClass); err != nil {
		return nil, err
	}
	return s, nil
}

// trainedServer builds a server over a real (tiny) synthesizer; shared
// across the contract tests below because training dominates runtime.
var (
	realOnce sync.Once
	realGen  *core.Synthesizer
	realErr  error
)

func realSynth(t *testing.T) *core.Synthesizer {
	t.Helper()
	realOnce.Do(func() {
		cfg := core.DefaultConfig()
		cfg.Rows = 16
		cfg.DownH = 2
		cfg.DownW = 16
		cfg.Hidden = 48
		cfg.TimeSteps = 30
		cfg.BaseSteps = 25
		cfg.FineTuneSteps = 35
		cfg.Batch = 8
		cfg.DDIMSteps = 6
		realGen, realErr = trainSynth(cfg, []string{"amazon", "teams"})
	})
	if realErr != nil {
		t.Fatal(realErr)
	}
	return realGen
}

func realServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(realSynth(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestServeRealSynthesizerContract is the network-boundary determinism
// contract over a real checkpoint: seeded requests are byte-identical,
// unseeded requests differ, and both formats decode.
func TestServeRealSynthesizerContract(t *testing.T) {
	s := realServer(t, Config{MaxInFlight: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer shutdownServer(t, s)

	code, a, hdr := post(t, ts.URL, `{"class":"amazon","count":2,"seed":9}`)
	if code != http.StatusOK {
		t.Fatalf("seeded request: %d %s", code, a)
	}
	if got := hdr.Get("X-Traced-Seed"); got != "9" {
		t.Fatalf("X-Traced-Seed = %q, want 9", got)
	}
	if len(a) < 4 || binary.LittleEndian.Uint32(a[:4]) != pcap.MagicMicroseconds {
		t.Fatal("response does not start with the pcap magic number")
	}
	rd, err := pcap.NewReader(bytes.NewReader(a))
	if err != nil {
		t.Fatalf("response is not a structurally valid pcap: %v", err)
	}
	recs, err := rd.ReadAll()
	if err != nil || len(recs) == 0 {
		t.Fatalf("pcap records: %d, err %v", len(recs), err)
	}

	_, b, _ := post(t, ts.URL, `{"class":"amazon","count":2,"seed":9}`)
	if !bytes.Equal(a, b) {
		t.Fatal("two requests with the same seed returned different bodies")
	}
	_, c, _ := post(t, ts.URL, `{"class":"amazon","count":2,"seed":10}`)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds returned identical bodies")
	}
	_, u1, _ := post(t, ts.URL, `{"class":"amazon","count":2}`)
	_, u2, _ := post(t, ts.URL, `{"class":"amazon","count":2}`)
	if bytes.Equal(u1, u2) {
		t.Fatal("two unseeded requests returned identical bodies")
	}

	code, csvBody, hdr := post(t, ts.URL, `{"class":"teams","seed":3,"format":"csv"}`)
	if code != http.StatusOK {
		t.Fatalf("csv request: %d %s", code, csvBody)
	}
	if ct := hdr.Get("Content-Type"); ct != "text/csv" {
		t.Fatalf("csv content type = %q", ct)
	}
	m, err := nprint.ReadCSV(bytes.NewReader(csvBody))
	if err != nil || m.NumRows == 0 {
		t.Fatalf("csv body did not parse as an nprint matrix: rows %d err %v", m.NumRows, err)
	}
}

// TestServeConcurrentMixedClasses hammers a real-synthesizer server
// with concurrent requests across classes and checks every response is
// a valid pcap of the right size. With continuous batching the
// concurrent burst shares denoiser forwards, so batch occupancy and
// the per-class admission-wait histograms must both show traffic.
func TestServeConcurrentMixedClasses(t *testing.T) {
	s := realServer(t, Config{MaxInFlight: 8, QueueDepth: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer shutdownServer(t, s)

	const n = 12
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			class := []string{"amazon", "teams"}[i%2]
			code, body, _ := post(t, ts.URL, fmt.Sprintf(`{"class":%q,"seed":%d}`, class, 100+i))
			if code != http.StatusOK {
				errs[i] = fmt.Errorf("request %d: status %d body %q", i, code, body)
				return
			}
			rd, err := pcap.NewReader(bytes.NewReader(body))
			if err != nil {
				errs[i] = fmt.Errorf("request %d: %v", i, err)
				return
			}
			if recs, err := rd.ReadAll(); err != nil || len(recs) == 0 {
				errs[i] = fmt.Errorf("request %d: %d records, err %v", i, len(recs), err)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	m := metricsSnapshot(t, ts.URL)
	if m["flows_generated_total"] < n {
		t.Fatalf("flows_generated_total = %v, want >= %d", m["flows_generated_total"], n)
	}
	if m["flows_admitted_total"] < n {
		t.Fatalf("flows_admitted_total = %v, want >= %d", m["flows_admitted_total"], n)
	}
	if m["batch_occupancy_count"] <= 0 || m["batch_occupancy_sum"] < m["batch_occupancy_count"] {
		t.Fatalf("batch occupancy sum/count = %v/%v, want positive with sum >= count",
			m["batch_occupancy_sum"], m["batch_occupancy_count"])
	}
	raw := metricsRaw(t, ts.URL)
	for _, class := range []string{"amazon", "teams"} {
		if got := classCounter(t, raw, "admission_wait_ms_count", class); got != n/2 {
			t.Fatalf(`admission_wait_ms_count[%q] = %v, want %d`, class, got, n/2)
		}
	}
}

// terminalCounters are the mutually-exclusive outcome counters of
// POST /v1/generate: every request that reaches a terminal state must
// bump exactly one of them, or a load harness's client-side status
// accounting can never reconcile against the server's /metrics.
var terminalCounters = []string{
	"completed_total",
	"rejected_total",
	"drain_rejected_total",
	"bad_request_total",
	"deadline_expired_total",
	"failed_total",
}

func terminalSnapshot(t *testing.T, url string) map[string]float64 {
	t.Helper()
	all := metricsSnapshot(t, url)
	out := map[string]float64{}
	for _, k := range terminalCounters {
		v, ok := all[k]
		if !ok {
			t.Fatalf("terminal counter %s missing from /metrics", k)
		}
		out[k] = v
	}
	return out
}

// assertOneBump checks that exactly `want` moved by +1 between two
// terminal-counter snapshots and everything else is unchanged.
func assertOneBump(t *testing.T, before, after map[string]float64, want, scenario string) {
	t.Helper()
	for _, k := range terminalCounters {
		delta := after[k] - before[k]
		expect := 0.0
		if k == want {
			expect = 1
		}
		if delta != expect {
			t.Errorf("%s: counter %s moved %v, want %v (before=%v after=%v)",
				scenario, k, delta, expect, before, after)
		}
	}
}

// TestTerminalPathCounters drives every terminal path of the generate
// handler — 200, the whole 4xx validation surface, 429 backpressure,
// 504 expiry, 500 engine failure and both 503 drain-window paths — and
// asserts each bumps exactly one outcome counter. The drain paths are
// the PR's regression: they previously incremented nothing.
func TestTerminalPathCounters(t *testing.T) {
	t.Run("validation-and-success", func(t *testing.T) {
		eng := &fakeEngine{classes: []string{"amazon"}}
		s := NewWithEngine(eng, Config{MaxFlowsPerRequest: 4})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		defer shutdownServer(t, s)

		cases := []struct {
			scenario string
			body     string
			counter  string
		}{
			{"success", `{"class":"amazon"}`, "completed_total"},
			{"bad json", `not json`, "bad_request_total"},
			{"unknown class", `{"class":"nope"}`, "bad_request_total"},
			{"count too large", `{"class":"amazon","count":9}`, "bad_request_total"},
			{"bad format", `{"class":"amazon","format":"exe"}`, "bad_request_total"},
		}
		for _, c := range cases {
			before := terminalSnapshot(t, ts.URL)
			post(t, ts.URL, c.body)
			assertOneBump(t, before, terminalSnapshot(t, ts.URL), c.counter, c.scenario)
		}

		// Method not allowed is terminal too.
		before := terminalSnapshot(t, ts.URL)
		if code, _, _ := get(t, ts.URL+"/v1/generate"); code != http.StatusMethodNotAllowed {
			t.Fatalf("GET /v1/generate = %d, want 405", code)
		}
		assertOneBump(t, before, terminalSnapshot(t, ts.URL), "bad_request_total", "method not allowed")
	})

	t.Run("backpressure-429", func(t *testing.T) {
		gate := make(chan struct{})
		eng := &fakeEngine{classes: []string{"amazon"}, gate: gate}
		s := NewWithEngine(eng, Config{QueueDepth: 1})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		defer shutdownServer(t, s)
		defer close(gate)

		done := make(chan int, 1)
		go func() {
			code, _, _ := post(t, ts.URL, `{"class":"amazon"}`)
			done <- code
		}()
		waitFor(t, "request inside the engine", func() bool { return eng.inFlight.Load() == 1 })

		before := terminalSnapshot(t, ts.URL)
		if code, _, _ := post(t, ts.URL, `{"class":"amazon"}`); code != http.StatusTooManyRequests {
			t.Fatalf("overflow request = %d, want 429", code)
		}
		assertOneBump(t, before, terminalSnapshot(t, ts.URL), "rejected_total", "gate full")

		gate <- struct{}{}
		if code := <-done; code != http.StatusOK {
			t.Fatalf("admitted request finished with %d", code)
		}
	})

	t.Run("deadline-504", func(t *testing.T) {
		gate := make(chan struct{})
		eng := &fakeEngine{classes: []string{"amazon"}, gate: gate}
		s := NewWithEngine(eng, Config{QueueDepth: 4})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		defer shutdownServer(t, s)
		defer close(gate)

		before := terminalSnapshot(t, ts.URL)
		if code, _, _ := post(t, ts.URL, `{"class":"amazon","timeout_ms":40}`); code != http.StatusGatewayTimeout {
			t.Fatalf("expired request = %d, want 504", code)
		}
		assertOneBump(t, before, terminalSnapshot(t, ts.URL), "deadline_expired_total", "deadline expiry")
	})

	t.Run("engine-failure-500", func(t *testing.T) {
		eng := &fakeEngine{classes: []string{"amazon"}, failErr: fmt.Errorf("synthetic engine failure")}
		s := NewWithEngine(eng, Config{QueueDepth: 4})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		defer shutdownServer(t, s)

		before := terminalSnapshot(t, ts.URL)
		if code, _, _ := post(t, ts.URL, `{"class":"amazon"}`); code != http.StatusInternalServerError {
			t.Fatalf("failing request = %d, want 500", code)
		}
		assertOneBump(t, before, terminalSnapshot(t, ts.URL), "failed_total", "engine failure")
	})

	t.Run("drain-503", func(t *testing.T) {
		eng := &fakeEngine{classes: []string{"amazon"}}
		s := NewWithEngine(eng, Config{QueueDepth: 4})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		shutdownServer(t, s)

		// Every request inside the drain window is a drain rejection —
		// previously invisible in /metrics.
		before := terminalSnapshot(t, ts.URL)
		for i := 0; i < 3; i++ {
			code, _, hdr := post(t, ts.URL, `{"class":"amazon"}`)
			if code != http.StatusServiceUnavailable {
				t.Fatalf("drain-window request = %d, want 503", code)
			}
			if hdr.Get("Retry-After") == "" {
				t.Fatal("503 without Retry-After header")
			}
		}
		after := terminalSnapshot(t, ts.URL)
		if got := after["drain_rejected_total"] - before["drain_rejected_total"]; got != 3 {
			t.Fatalf("drain_rejected_total moved %v, want 3", got)
		}
		for _, k := range terminalCounters {
			if k != "drain_rejected_total" && after[k] != before[k] {
				t.Fatalf("counter %s moved during drain rejections", k)
			}
		}
	})
}

// TestPrecisionAdvertised pins the precision surfaces a routing tier
// keys on: the X-Traced-Precision response header and the
// /readyz?verbose=1 field both carry the constant "fp32" (never empty —
// a router in a mixed pool keys cache entries on it).
func TestPrecisionAdvertised(t *testing.T) {
	s := NewWithEngine(&fakeEngine{classes: []string{"amazon"}}, Config{CheckpointDigest: "sha256:ab"})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer shutdownServer(t, s)

	code, _, hdr := post(t, ts.URL, `{"class":"amazon","count":1,"seed":9}`)
	if code != http.StatusOK {
		t.Fatalf("generate status %d", code)
	}
	if got := hdr.Get("X-Traced-Precision"); got != "fp32" {
		t.Fatalf("X-Traced-Precision = %q, want fp32", got)
	}

	resp, err := http.Get(ts.URL + "/readyz?verbose=1")
	if err != nil {
		t.Fatal(err)
	}
	var st ReadyStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	if cerr := resp.Body.Close(); cerr != nil {
		t.Error(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if st.Precision != "fp32" {
		t.Fatalf("readyz precision = %q, want fp32", st.Precision)
	}
}
