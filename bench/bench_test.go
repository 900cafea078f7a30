package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"trafficdiff/internal/pcap"
)

func TestPercentileRule(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	// Nearest rank: the p-th percentile of 1..100 is p.
	for _, p := range []float64{50, 90, 95, 99} {
		if v, beyond := percentile(ramp(100), p); v != p || beyond != 100-int(p) {
			t.Errorf("percentile(1..100, %g) = %g with %d beyond", p, v, beyond)
		}
	}
	// The tail is the highest ladder percentile with >= 10 samples
	// beyond it; these are the sample counts of the workloads at
	// -seconds 20 and the edges around them.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{16, 50}, {20, 50}, {99, 50}, {100, 90}, {120, 90}, {199, 90},
		{200, 95}, {320, 95}, {999, 95}, {1000, 99}, {2000, 99}, {20000, 99},
	} {
		p, v := tailPercentile(ramp(c.n), 100)
		if p != c.want {
			t.Errorf("n=%d: tail is p%g, want p%g", c.n, p, c.want)
		}
		if _, beyond := percentile(ramp(c.n), p); c.n >= 20 && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%g", c.n, beyond, p)
		}
		if want, _ := percentile(ramp(c.n), p); v != want {
			t.Errorf("n=%d: tail value %g, want %g", c.n, v, want)
		}
	}
	// One kind of request is reported at p95 at most.
	if p, _ := tailPercentile(ramp(20000), kindTailCap); p != 95 {
		t.Errorf("capped tail is p%g, want p95", p)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3, err := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if err != nil || q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, %v", q1, q2, q3, err)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	q1, q2, q3, err = quartiles([]float64{1, 2, 3, 4, 5})
	if err != nil || q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %g %g %g, %v", q1, q2, q3, err)
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value must fail")
	}
}

func TestPlansArePureFunctionsOfTheSeed(t *testing.T) {
	m := smokeModel()
	digests := func(seed uint64) map[string]string {
		out := map[string]string{}
		for _, name := range workloadNames {
			p, err := buildPlan(name, m, seed, 3)
			if err != nil {
				t.Fatal(err)
			}
			hits := 0
			for _, s := range p.streams {
				for _, r := range s {
					if r.expectCache == "hit" {
						hits++
					}
				}
			}
			out[name] = fmt.Sprintf("%s hits=%d", p.digest, hits)
		}
		return out
	}
	prev := runtime.GOMAXPROCS(1)
	one := digests(1)
	runtime.GOMAXPROCS(2)
	two := digests(1)
	other := digests(2)
	runtime.GOMAXPROCS(prev)
	for _, name := range workloadNames {
		if one[name] != two[name] {
			t.Errorf("%s: plan differs between GOMAXPROCS 1 and 2", name)
		}
		if one[name] == other[name] {
			t.Errorf("%s: seeds 1 and 2 give the same plan", name)
		}
	}
	if _, err := buildPlan("nope", m, 1, 3); err == nil {
		t.Error("unknown workload must fail")
	}
}

func TestRouterRepeatShape(t *testing.T) {
	p, err := buildPlan("router_repeat", smokeModel(), 7, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.streams) != connections {
		t.Fatalf("%d streams, want %d", len(p.streams), connections)
	}
	seen := map[uint64]int{}
	misses := 0
	for c, s := range p.streams {
		if len(s) != repeatPerConn {
			t.Errorf("stream %d: %d requests, want %d", c, len(s), repeatPerConn)
		}
		for _, r := range s {
			owner, known := seen[r.Seed]
			switch {
			case r.expectCache == "miss" && known:
				t.Fatalf("seed %d is a miss twice", r.Seed)
			case r.expectCache == "hit" && (!known || owner != c):
				t.Fatalf("hit on a key stream %d never sent", c)
			case r.expectCache == "miss":
				seen[r.Seed] = c
				misses++
			}
		}
	}
	share := float64(misses) / float64(p.requests())
	if math.Abs(share-repeatNewKeyShare) > 0.01 {
		t.Errorf("new-key share %.3f, want about %.2f", share, repeatNewKeyShare)
	}
	if misses > 4096 {
		t.Errorf("%d keys exceed the router's default cache (4096 entries): evictions would not be 0", misses)
	}
}

func TestServeMixedShape(t *testing.T) {
	p, err := buildPlan("serve_mixed", smokeModel(), 3, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !p.openLoop || len(p.streams) != 2 {
		t.Fatalf("open loop %v with %d streams", p.openLoop, len(p.streams))
	}
	// 480 requests split 10:6, stretched to exactly 30 s.
	if a, b := len(p.streams[0]), len(p.streams[1]); a != 300 || b != 180 {
		t.Errorf("streams hold %d and %d requests, want 300 and 180", a, b)
	}
	last := time.Duration(0)
	for si, s := range p.streams {
		for _, r := range s {
			if r.due > last {
				last = r.due
			}
			if wantFlows, wantLimit := []int{1, 8}[si], []float64{40, 120}[si]; r.Count != wantFlows || r.limitMs != wantLimit || r.kind != si {
				t.Fatalf("stream %d request %+v", si, r)
			}
		}
	}
	if last != 30*time.Second {
		t.Errorf("last request due at %v, want 30s", last)
	}
}

// stubTraced answers every generate request with a one-packet pcap
// after a fixed delay.
func stubTraced(t *testing.T, delay time.Duration) (addr string, body []byte) {
	var buf bytes.Buffer
	pw, err := pcap.NewWriter(&buf, pcap.LinkTypeEthernet)
	if err != nil {
		t.Fatal(err)
	}
	if err := pw.WritePacket(time.Unix(1, 0), make([]byte, 60)); err != nil {
		t.Fatal(err)
	}
	body = buf.Bytes()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		w.Header().Set("X-Traced-Flows", "1")
		if _, err := w.Write(body); err != nil {
			t.Error(err)
		}
	}))
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://"), body
}

func TestDueTimeLatencyAndSendDelay(t *testing.T) {
	const delay = 30 * time.Millisecond
	addr, body := stubTraced(t, delay)
	one := genRequest{Class: "amazon", Count: 1, Seed: 1, Format: "pcap"}
	// Two requests on one connection, due 10 ms apart, each taking
	// 30 ms: the second cannot leave before the first reply, so from
	// its due time it takes 20 ms of waiting plus 30 ms of service —
	// and none of that is the generator being late.
	p := &plan{name: "stub", openLoop: true, streams: [][]request{{
		{genRequest: one, due: 0, limitMs: 40, solo: body},
		{genRequest: one, due: 10 * time.Millisecond, limitMs: 40},
		{genRequest: one, due: 200 * time.Millisecond, limitMs: 40},
	}}}
	c := newClient(addr)
	defer c.close()
	ph := runPhase(p, func(int) sender { return httpSender{c} }, nil)
	if len(ph.failures) > 0 {
		t.Fatal(ph.failures)
	}
	const slack = 25 * time.Millisecond // scheduling noise on a busy test host
	want := []time.Duration{delay, 2*delay - 10*time.Millisecond, delay}
	for i, s := range ph.samples {
		if s.lat < want[i] || s.lat > want[i]+slack {
			t.Errorf("request %d: latency from due time %v, want %v..%v", i, s.lat, want[i], want[i]+slack)
		}
		if s.delay < 0 || s.delay > slack {
			t.Errorf("request %d: send delay %v, want about 0", i, s.delay)
		}
	}
	// The second request took at least 50 ms from its due time: it
	// missed the 40 ms limit however fast the host is.
	for i, s := range ph.samples {
		if want := ms(s.lat) <= 40; !s.limited || s.met != want {
			t.Errorf("request %d: latency %v, limited %v, met %v", i, s.lat, s.limited, s.met)
		}
	}
	if ph.samples[1].met {
		t.Error("a request 50 ms late met a 40 ms limit")
	}
	if d := sendDelays(ph); d.max > ms(slack) || d.p99 > d.max {
		t.Errorf("send delays %+v", d)
	}

	// The same requests in a closed loop are timed from when they were
	// sent.
	p.openLoop = false
	ph = runPhase(p, func(int) sender { return httpSender{c} }, nil)
	for i, s := range ph.samples {
		if s.lat < delay || s.lat > delay+slack {
			t.Errorf("closed loop request %d: latency %v, want about %v", i, s.lat, delay)
		}
	}

	// With together set, the stream that finishes first ends the other.
	short := []request{{genRequest: one}}
	long := make([]request, 50)
	for i := range long {
		long[i] = request{genRequest: one}
	}
	c2 := newClient(addr)
	defer c2.close()
	both := &plan{name: "stub", together: true, streams: [][]request{short, long}}
	ph = runPhase(both, func(i int) sender { return httpSender{[]*client{c, c2}[i]} }, nil)
	if n, failed := ph.counts(); n < 2 || n > 4 || failed != 0 {
		t.Errorf("together: %d requests sent (%d failed), want the long stream cut to 1-3", n, failed)
	}

	// A reply that differs from its solo run is a failure, not a sample.
	p.streams[0][0].solo = []byte("something else")
	ph = runPhase(p, func(int) sender { return httpSender{c} }, nil)
	if _, failed := ph.counts(); failed != 1 || len(ph.failures) != 1 {
		t.Errorf("%d failed with notes %v, want 1", failed, ph.failures)
	}
}

func TestCheckReply(t *testing.T) {
	_, body := stubTraced(t, 0)
	g := genRequest{Class: "amazon", Count: 1, Format: "pcap"}
	hdr := func(flows string, n int) http.Header {
		h := http.Header{}
		h.Set("X-Traced-Flows", flows)
		h.Set("Content-Length", strconv.Itoa(n))
		return h
	}
	good := &reply{status: 200, header: hdr("1", len(body)), body: body}
	if err := checkReply(g, good); err != nil {
		t.Errorf("good reply: %v", err)
	}
	for name, r := range map[string]*reply{
		"status":         {status: 429, header: hdr("1", len(body)), body: body},
		"flows":          {status: 200, header: hdr("2", len(body)), body: body},
		"content-length": {status: 200, header: hdr("1", len(body)+1), body: body},
		"truncated pcap": {status: 200, header: hdr("1", len(body)-7), body: body[:len(body)-7]},
		"no packets":     {status: 200, header: hdr("1", 24), body: body[:24]},
	} {
		if err := checkReply(g, r); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	g.Format = "csv"
	if err := checkReply(g, &reply{status: 200, header: hdr("1", 0)}); err == nil {
		t.Error("empty csv: accepted")
	}
}

func TestLayerTableSums(t *testing.T) {
	rows := layerTable([]layerTotal{
		{Layer: "tensor", Us: 400},
		{Layer: "denoiser", Us: 700, Inner: []string{"tensor"}},
		{Layer: "scheduler", Us: 760, Inner: []string{"denoiser"}},
		{Layer: "postprocess", Us: 90},
		// Measured below the sum of its parts: the row goes negative
		// rather than being dropped or folded into a neighbour.
		{Layer: "core.unattributed", Us: 830, Inner: []string{"scheduler", "postprocess"}},
		{Layer: "encode", Us: 10},
		{Layer: "engine", Us: 900, Inner: []string{"core.unattributed"}},
		{Layer: "serve", Us: 1000, Inner: []string{"engine", "encode"}},
		{Layer: "cluster", Us: 1250, Inner: []string{"serve"}},
	})
	want := map[string]float64{
		"tensor": 400, "denoiser": 300, "scheduler": 60, "postprocess": 90, "core.unattributed": -20,
		"encode": 10, "engine": 70, "serve": 90, "cluster": 250,
	}
	var sum, share float64
	for _, r := range rows {
		if r.Us != want[r.Layer] {
			t.Errorf("%s: %g us, want %g", r.Layer, r.Us, want[r.Layer])
		}
		sum += r.Us
		share += r.Share
	}
	if len(rows) != len(want) || sum != 1250 || math.Abs(share-1) > 1e-9 {
		t.Errorf("%d rows sum to %g us and share %g; want %d rows, 1250 us, share 1", len(rows), sum, share, len(want))
	}
}

func TestJudge(t *testing.T) {
	sum := func(med, iqr float64) metricSummary {
		return metricSummary{Median: med, Q1: med - iqr/2, Q3: med + iqr/2, N: 10}
	}
	lower := metricDef{Name: "req_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "flows_per_s", Better: "higher", Bound: 0.10}
	share := metricDef{Name: "slo_attainment", Better: "higher", Bound: 0.05, Absolute: true}
	none := metricDef{Name: "failed_share", Better: "lower", Bound: 0, Absolute: true}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b metricSummary
		want string
	}{
		{"same", lower, sum(10, 0.2), sum(10.5, 0.2), verdictOK},
		{"slower", lower, sum(10, 0.2), sum(11.5, 0.2), verdictWorse},
		{"faster", lower, sum(10, 0.2), sum(8.5, 0.2), verdictBetter},
		{"noisy reference", lower, sum(10, 1.5), sum(12, 0.2), verdictUnresolved},
		{"noisy candidate", lower, sum(10, 0.2), sum(10, 1.5), verdictUnresolved},
		{"throughput fell", higher, sum(100, 1), sum(85, 1), verdictWorse},
		{"throughput rose", higher, sum(100, 1), sum(115, 1), verdictBetter},
		{"share within 0.05", share, sum(0.9, 0.01), sum(0.86, 0.01), verdictOK},
		{"share fell 0.1", share, sum(0.9, 0.01), sum(0.8, 0.01), verdictWorse},
		{"no failures", none, sum(0, 0), sum(0, 0), verdictOK},
		{"any failure", none, sum(0, 0), sum(0.001, 0), verdictWorse},
	} {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, latency float64, digest string) string {
		rep := report{}
		for seed := uint64(1); seed <= 4; seed++ {
			rep.Runs = append(rep.Runs, &runResult{
				Workload: "serve_small", Seed: seed, ScheduleDigest: digest,
				Metrics: map[string]metric{
					"req_ms_p50":   {Value: latency + 0.01*float64(seed), Unit: "ms"},
					"failed_share": {Value: 0, Unit: "share"},
				},
			})
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow, other := write("a.json", 10, "d1"), write("b.json", 10.2, "d1"), write("c.json", 13, "d1"), write("d.json", 10, "d2")
	for _, c := range []struct {
		path  string
		worse bool
		want  string
	}{
		{same, false, "2 ok, 0 better, 0 worse, 0 unresolved"},
		{slow, true, "1 ok, 0 better, 1 worse, 0 unresolved"},
		{other, true, "inputs differ: serve_small seed 1"},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, a, c.path)
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.worse || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: worse=%v, output:\n%s\nwant worse=%v and %q", filepath.Base(c.path), worse, out.String(), c.worse, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the driver
// reads, in step with the tables the program reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	if len(doc.Workloads) != len(gatedWorkloads) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(gatedWorkloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != gatedWorkloads[i] || w.Why != workloadWhy[w.Name] || len(w.Why) > 200 {
			t.Errorf("workload %d: %q / %q (%d chars)", i, w.Name, w.Why, len(w.Why))
		}
	}
	gated := gatedMetrics()
	if len(doc.EndToEnd) != len(gated) {
		t.Fatalf("%d end_to_end metrics, want %d", len(doc.EndToEnd), len(gated))
	}
	for i, m := range doc.EndToEnd {
		d := gated[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, table has %+v", i, m, d)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics, want %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, table has %+v", i, m, d)
		}
	}
}

var smoke struct {
	once sync.Once
	ckpt []byte
	err  error
}

func smokeCheckpoint(t *testing.T) []byte {
	smoke.once.Do(func() { smoke.ckpt, smoke.err = trainCheckpoint(smokeModel()) })
	if smoke.err != nil {
		t.Fatal(smoke.err)
	}
	return smoke.ckpt
}

// TestSmoke runs all five workloads, untraced and traced, on the tiny
// model at about 1/50 of the requests, so that API drift in any layer
// the benchmark imports fails tier-1 instead of the next benchmark run.
func TestSmoke(t *testing.T) {
	ckpt := smokeCheckpoint(t)
	m := smokeModel()
	const seconds = 0.6
	for _, name := range workloadNames {
		res, err := runPlain(m, ckpt, name, 1, seconds)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.failed() != 0 || len(res.Failures) != 0 {
			t.Errorf("%s: failures %v %v", name, res.CheckFailures, res.Failures)
		}
		for _, d := range gatedMetrics() {
			if v, ok := res.Metrics[d.Name]; !ok || !(v.Value > 0) || v.Unit != d.Unit {
				t.Errorf("%s: %s = %+v (present %v)", name, d.Name, v, ok)
			}
		}
		if name == "router_repeat" && (res.CacheHits == 0 || res.CacheMisses == 0) {
			t.Errorf("router_repeat saw %d hits and %d misses", res.CacheHits, res.CacheMisses)
		}
		if name == "serve_mixed" {
			if _, ok := res.Metrics["slo_attainment"]; !ok {
				t.Error("serve_mixed reports no slo_attainment")
			}
		}

		tracePath := filepath.Join(t.TempDir(), "trace.json")
		tr, err := runTraced(m, ckpt, name, 1, seconds, 2*time.Millisecond, tracePath)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if tr.failed() != 0 {
			t.Errorf("%s traced: failures %v %v", name, tr.CheckFailures, tr.Failures)
		}
		for _, d := range perLayer {
			if v, ok := tr.Metrics[d.Name]; !ok || v.Unit != d.Unit {
				t.Errorf("%s traced: %s = %+v (present %v)", name, d.Name, v, ok)
			}
		}
		if len(tr.Metrics) != len(perLayer) {
			t.Errorf("%s traced: %d metrics, the table has %d", name, len(tr.Metrics), len(perLayer))
		}
		if tr.Metrics["tensor.gemm_us_r64"].Value <= 0 || tr.Metrics["core.generate_ms_n1"].Value <= 0 {
			t.Errorf("%s traced: kernel and core rows are empty", name)
		}
		if want := float64(2 * m.ServeSteps); name != "offline_bulk" && tr.Metrics["scheduler.forwards_per_flow"].Value != want {
			t.Errorf("%s traced: %g forwards per flow, want %g", name, tr.Metrics["scheduler.forwards_per_flow"].Value, want)
		}
		if len(tr.Table) != 9 {
			t.Errorf("%s traced: layer table has %d rows, want 9", name, len(tr.Table))
		}
		var spans []span
		data, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
			t.Errorf("%s traced: %d spans, %v", name, len(spans), err)
		}
	}
}
