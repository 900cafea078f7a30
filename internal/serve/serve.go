// Package serve implements traced's backpressured HTTP trace-generation
// service over a saved core.Synthesizer checkpoint, with continuous
// batching.
//
// The request path is deliberately short:
//
//	handler → admission gate → continuous-batching engine
//
// The gate bounds the requests concurrently inside the service; beyond
// it the handler answers 429 with a Retry-After header instead of
// letting latency grow without bound. Admitted requests feed a
// core.Engine, which runs one step loop per CPU and gives each request
// to the loop with the least work; a loop owns its in-flight denoising
// batch: new requests join at the next timestep boundary (no closed
// batches, no head-of-line blocking behind whole generations) and
// requests whose deadline expires — queued or mid-denoise — retire
// their flows at the next boundary and are answered 504, so abandoned
// work stops consuming denoiser forwards.
//
// Determinism across the network boundary: a request with an explicit
// seed expands to per-flow seeds via core.DeriveFlowSeeds, and each
// flow's bytes are a pure function of its own seed (the scheduler's
// bit-identity contract). Batch composition therefore never leaks into
// the output — a seeded request returns bit-identical pcap bytes on
// every replica serving the same checkpoint, no matter which other
// requests shared its denoiser forwards or when it joined the batch.
//
// Shutdown drains: the gate closes to new admissions, requests that
// hold a gate slot run to completion and their handlers write full
// responses, the owned engine closes, and only then does the HTTP
// server stop accepting. The gate, the metrics map and the plain
// handlers are the Shell this package shares with tracerouter.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"trafficdiff/internal/core"
	"trafficdiff/internal/nprint"
	"trafficdiff/internal/pcap"
)

// Engine is the slice of core.Engine the service needs: a continuous
// generation engine whose Generate blocks until the request's flows
// complete (or its context expires), calling onAdmit when the flows
// enter the denoising batch. Implementations must make each flow a
// pure function of its seed (batch-composition independent) and be
// safe for concurrent Generate calls. DDIMSteps is the sampler budget
// reported on /readyz?verbose=1 and in X-Traced-DDIM-Steps.
type Engine interface {
	Classes() []string
	Generate(ctx context.Context, class string, flowSeeds []uint64, onAdmit func()) (*core.GenerateResult, error)
	Stats() core.EngineStats
	DDIMSteps() int
}

// Config parameterizes a Server. Zero values take the defaults noted
// on each field.
type Config struct {
	// QueueDepth bounds the requests concurrently inside the service
	// (waiting for admission or mid-generation); requests beyond it get
	// 429 (default 64).
	QueueDepth int
	// MaxInFlight caps the flows simultaneously in each engine step
	// loop's denoising batch (0 takes core.DefaultMaxInFlight; one loop
	// per CPU). Larger values raise throughput under load; smaller ones
	// bound per-step latency.
	MaxInFlight int
	// RequestTimeout is the per-request deadline ceiling; a request's
	// timeout_ms may shorten it but never extend it (default 60s).
	RequestTimeout time.Duration
	// MaxFlowsPerRequest bounds count per request (default 64).
	MaxFlowsPerRequest int
	// SeedBase seeds the derivation chain for requests that do not
	// carry an explicit seed (default 1). Replicas that must differ on
	// unseeded traffic should differ here.
	SeedBase uint64
	// CheckpointDigest identifies the loaded checkpoint (conventionally
	// "sha256:<hex>"). It is reported on /readyz?verbose=1 and stamped
	// on every generate response as X-Traced-Checkpoint — with
	// "/v<N>" appended from core.OutputVersion 2 on — so a routing
	// tier can derive content-addressed cache keys and validate that a
	// replica serves the checkpoint and code the cache entry was built
	// from. Optional; empty means "unidentified".
	CheckpointDigest string
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.MaxFlowsPerRequest <= 0 {
		c.MaxFlowsPerRequest = 64
	}
	return c
}

// Server is the trace-generation service.
type Server struct {
	*Shell
	eng     Engine
	cfg     Config
	classes map[string]bool
	met     *metrics

	checkpoint string // checkpointCoordinate of cfg.CheckpointDigest
	// start anchors the uptime reported on /readyz?verbose=1.
	start time.Time

	seedCtr atomic.Uint64
}

// The engine New builds steps at most stepRows rows per denoiser
// forward in each loop, the requests with the least remaining work
// first, so a fresh 1-flow request reaches its result through cheap
// forwards even when the batch is full of bulk work
// (core.EngineConfig.MaxStepRows).
const stepRows = 8

// New builds a Server over a fine-tuned synthesizer, starting a
// continuous-batching core.Engine sized by cfg. Callers must
// eventually Shutdown, which drains the server and then closes the
// engine.
func New(synth *core.Synthesizer, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	eng, err := core.NewEngine(synth, core.EngineConfig{
		MaxInFlight: cfg.MaxInFlight,
		MaxStepRows: stepRows,
	})
	if err != nil {
		return nil, err
	}
	s := NewWithEngine(eng, cfg)
	s.drained = eng.Close
	return s, nil
}

// NewWithEngine builds a Server over a caller-owned engine; Shutdown
// drains the server but leaves the engine running (the caller closes
// it).
func NewWithEngine(eng Engine, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		Shell:      NewShell(cfg.QueueDepth),
		eng:        eng,
		cfg:        cfg,
		classes:    map[string]bool{},
		checkpoint: checkpointCoordinate(cfg.CheckpointDigest, core.OutputVersion),
		start:      time.Now(),
	}
	for _, c := range eng.Classes() {
		s.classes[c] = true
	}
	s.met = newMetrics(s.Shell, eng.Classes(), eng.Stats)
	s.HandleFunc("/v1/generate", s.handleGenerate)
	s.HandleFunc("/readyz", s.handleReadyz)
	return s
}

// checkpointCoordinate is the checkpoint identity a replica reports:
// the file digest at output version 1, "<digest>/v<N>" from version 2
// on. An empty digest stays empty (an unidentified replica is
// uncacheable).
func checkpointCoordinate(digest string, version int) string {
	if digest == "" || version <= 1 {
		return digest
	}
	return digest + "/v" + strconv.Itoa(version)
}

// GenerateRequest is the POST /v1/generate body.
type GenerateRequest struct {
	Class string `json:"class"`
	// Count is the number of flows to synthesize (default 1).
	Count int `json:"count"`
	// Seed, when present, makes the response a pure function of
	// (checkpoint, class, count, seed): bit-identical on every replica.
	Seed *uint64 `json:"seed"`
	// Format selects the body encoding: "pcap" (default) or "csv"
	// (nprint bit matrices).
	Format string `json:"format"`
	// TimeoutMs shortens the server's per-request deadline.
	TimeoutMs int `json:"timeout_ms"`
}

// WithDefaults returns the request with its defaults applied: count 0
// is 1 and an empty format is "pcap".
func (gr GenerateRequest) WithDefaults() GenerateRequest {
	if gr.Count == 0 {
		gr.Count = 1
	}
	if gr.Format == "" {
		gr.Format = "pcap"
	}
	return gr
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.met.badRequest.Add(1)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.Draining() {
		// Counted like the gateClosed branch below, so a load harness
		// can reconcile the 503s it sees inside the drain window.
		s.met.drainRejected.Add(1)
		s.WriteDraining(w)
		return
	}
	var gr GenerateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&gr); err != nil {
		s.met.badRequest.Add(1)
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	gr = gr.WithDefaults()
	if gr.Count < 0 || gr.Count > s.cfg.MaxFlowsPerRequest {
		s.met.badRequest.Add(1)
		http.Error(w, fmt.Sprintf("count must be in [1,%d]", s.cfg.MaxFlowsPerRequest), http.StatusBadRequest)
		return
	}
	if !s.classes[gr.Class] {
		s.met.badRequest.Add(1)
		http.Error(w, fmt.Sprintf("unknown class %q", gr.Class), http.StatusBadRequest)
		return
	}
	if gr.Format != "pcap" && gr.Format != "csv" {
		s.met.badRequest.Add(1)
		http.Error(w, `format must be "pcap" or "csv"`, http.StatusBadRequest)
		return
	}

	seed := s.deriveSeed(gr.Seed)
	timeout := s.cfg.RequestTimeout
	// Compared in milliseconds before converting: a huge timeout_ms
	// times time.Millisecond overflows to a negative, already expired
	// deadline.
	if ms := int64(gr.TimeoutMs); ms > 0 && ms <= int64(timeout/time.Millisecond) {
		timeout = time.Duration(ms) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	switch s.gate.acquire() {
	case gateOK:
		s.met.accepted.Add(1)
	case gateFull:
		s.met.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "service at capacity", http.StatusTooManyRequests)
		return
	case gateClosed:
		s.met.drainRejected.Add(1)
		s.WriteDraining(w)
		return
	}
	// The slot is the drain barrier: Shutdown waits for it, so the
	// owned engine cannot close under this request.
	defer s.gate.release()

	start := time.Now()
	class := gr.Class
	// onAdmit fires on the engine's step loop the moment the request's
	// flows join the in-flight batch; the elapsed time is exactly the
	// admission wait (gate + engine FIFO).
	onAdmit := func() { s.met.observeAdmissionWait(class, time.Since(start)) }
	// Generate is called synchronously: the engine itself answers an
	// expired request at the next step boundary (it never parks a dead
	// waiter), so a watcher goroutine would only add scheduling hops to
	// every request's latency to shave ~one boundary off the 504 path.
	res, err := s.eng.Generate(ctx, class, core.DeriveFlowSeeds(seed, gr.Count), onAdmit)
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		s.met.expired.Add(1)
		http.Error(w, "deadline exceeded before generation completed", http.StatusGatewayTimeout)
	case err != nil:
		s.met.failed.Add(1)
		http.Error(w, "generation failed: "+err.Error(), http.StatusInternalServerError)
	default:
		s.met.flowsGenerated.Add(int64(len(res.Flows)))
		s.met.latencyMsSum.Add(float64(time.Since(start)) / float64(time.Millisecond))
		s.met.latencyCount.Add(1)
		// Count before writing: a client that has read its response
		// then finds the completion in /metrics.
		s.met.completed.Add(1)
		s.writeBody(w, seed, gr.Format, res)
	}
}

// deriveSeed picks the request's root seed: the client's, or the next
// element of the server's derivation chain for unseeded requests.
func (s *Server) deriveSeed(client *uint64) uint64 {
	if client != nil {
		return *client
	}
	// SplitMix64-style increment keeps successive unseeded requests on
	// unrelated streams (same mixing discipline as stats.NewRNG).
	return s.cfg.SeedBase ^ (s.seedCtr.Add(1) * 0x9e3779b97f4a7c15)
}

// bodyBufs recycles reply buffers between requests: a 1-flow csv body
// is about 100 KB, the largest allocation a request would otherwise
// make. A buffer grown past maxPooledBody by a bulk reply goes to the
// collector instead, so one large answer does not stay pinned.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

// putBody returns a reply buffer to bodyBufs once its bytes are written.
func putBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		buf.Reset()
		bodyBufs.Put(buf)
	}
}

// writeBody encodes the generated flows and streams them out. The body
// is buffered first so a failed generation can never leave a
// half-written success response.
func (s *Server) writeBody(w http.ResponseWriter, seed uint64, format string, res *core.GenerateResult) {
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer putBody(buf)
	contentType := "application/vnd.tcpdump.pcap"
	switch format {
	case "csv":
		cells := 0
		for _, m := range res.Matrices {
			cells += len(m.Data)
		}
		buf.Grow(3*cells + 128*len(res.Matrices)) // at most "-1," per cell and a header line: ~90 KB a flow, sized once
		for _, m := range res.Matrices {
			if err := nprint.WriteCSV(buf, m); err != nil {
				http.Error(w, "encoding csv: "+err.Error(), http.StatusInternalServerError)
				return
			}
		}
		contentType = "text/csv"
	default:
		pw, err := pcap.NewWriter(buf, pcap.LinkTypeEthernet)
		if err != nil {
			http.Error(w, "encoding pcap: "+err.Error(), http.StatusInternalServerError)
			return
		}
		for _, fl := range res.Flows {
			for _, p := range fl.Packets {
				if err := pw.WritePacket(p.Timestamp, p.Data); err != nil {
					http.Error(w, "encoding pcap: "+err.Error(), http.StatusInternalServerError)
					return
				}
			}
		}
	}
	h := w.Header()
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	// One value per GenerationHeaders entry, in its order.
	values := [len(GenerationHeaders)]string{
		contentType, strconv.FormatUint(seed, 10), strconv.Itoa(len(res.Flows)),
		s.checkpoint, strconv.Itoa(s.eng.DDIMSteps()),
	}
	for i, name := range GenerationHeaders {
		if values[i] != "" {
			h.Set(name, values[i])
		}
	}
	s.WriteBody(w, buf.Bytes())
}

// GenerationHeaders are the headers a successful generate response
// carries besides Content-Length. The last two are the coordinates a
// routing tier checks before caching the bytes; it replays a cached
// answer from this list. X-Traced-Checkpoint is absent when the replica
// has no checkpoint identity.
var GenerationHeaders = [...]string{
	"Content-Type",
	"X-Traced-Seed",
	"X-Traced-Flows",
	"X-Traced-Checkpoint",
	"X-Traced-DDIM-Steps",
}

// ReadyStatus is the JSON body of GET /readyz?verbose=1: everything a
// routing tier needs to score a replica (queue depth, in-flight flows)
// and to validate cached responses against it (checkpoint digest, DDIM
// budget) without scraping expvar. The bare GET /readyz keeps the
// text/plain 200-or-503 contract existing probes rely on.
type ReadyStatus struct {
	Status           string   `json:"status"`
	QueueDepth       int      `json:"queue_depth"`
	InFlightFlows    int64    `json:"in_flight_flows"`
	CheckpointDigest string   `json:"checkpoint_digest,omitempty"`
	DDIMSteps        int      `json:"ddim_steps"`
	Classes          []string `json:"classes,omitempty"`
	UptimeMs         int64    `json:"uptime_ms"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	status, code := "ready", http.StatusOK
	if s.Draining() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	if r.URL.Query().Get("verbose") != "1" {
		s.WriteText(w, code, status)
		return
	}
	st := s.eng.Stats()
	s.WriteJSON(w, code, ReadyStatus{
		Status:           status,
		QueueDepth:       s.gate.depth(),
		InFlightFlows:    int64(st.FlowsAdmitted) - int64(st.FlowsCompleted) - int64(st.FlowsRetired),
		CheckpointDigest: s.checkpoint,
		DDIMSteps:        s.eng.DDIMSteps(),
		Classes:          s.eng.Classes(),
		UptimeMs:         time.Since(s.start).Milliseconds(),
	})
}

// metrics is the server's instrumentation, registered in the shell's
// expvar map.
type metrics struct {
	// Admission and completion counters. Every terminal outcome of
	// POST /v1/generate bumps exactly one of these (plus accepted_total
	// on the paths that made it through the gate), so a load harness
	// can reconcile its client-side status accounting against the
	// server: accepted = completed + expired + failed, and
	// badRequest + rejected + drainRejected + accepted = requests seen.
	accepted      *expvar.Int // accepted_total
	rejected      *expvar.Int // rejected_total (429 backpressure)
	drainRejected *expvar.Int // drain_rejected_total (503 while draining)
	badRequest    *expvar.Int // bad_request_total (4xx validation)
	expired       *expvar.Int // deadline_expired_total (504)
	completed     *expvar.Int // completed_total
	failed        *expvar.Int // failed_total (500)

	flowsGenerated *expvar.Int // flows_generated_total

	// Latency counters: mean = sum/count; distributions come from the
	// bench suite, not the live endpoint.
	latencyMsSum *expvar.Float // latency_ms_sum
	latencyCount *expvar.Int   // latency_ms_count

	// Admission-wait histograms keyed by class (mean = sum/count per
	// class): time from request acceptance to the step boundary where
	// its flows joined the in-flight batch.
	admitWaitMsSum *expvar.Map // admission_wait_ms_sum
	admitWaitCount *expvar.Map // admission_wait_ms_count
}

// newMetrics registers the counter set plus live gauges over the gate
// and the engine. Batch occupancy is exported as a count/sum pair
// straight from the engine's step counters: batch_occupancy_sum /
// batch_occupancy_count is the mean number of flows sharing each
// denoiser forward.
func newMetrics(sh *Shell, classes []string, engineStats func() core.EngineStats) *metrics {
	m := &metrics{
		accepted:       sh.Counter("accepted_total"),
		rejected:       sh.Counter("rejected_total"),
		drainRejected:  sh.Counter("drain_rejected_total"),
		badRequest:     sh.Counter("bad_request_total"),
		expired:        sh.Counter("deadline_expired_total"),
		completed:      sh.Counter("completed_total"),
		failed:         sh.Counter("failed_total"),
		flowsGenerated: sh.Counter("flows_generated_total"),
		latencyCount:   sh.Counter("latency_ms_count"),
		latencyMsSum:   new(expvar.Float),
		admitWaitMsSum: new(expvar.Map).Init(),
		admitWaitCount: new(expvar.Map).Init(),
	}
	sh.vars.Set("latency_ms_sum", m.latencyMsSum)
	// Pre-seed every class so scrapes see zeroed series from the start.
	for _, c := range classes {
		m.admitWaitMsSum.AddFloat(c, 0)
		m.admitWaitCount.Add(c, 0)
	}
	sh.vars.Set("admission_wait_ms_sum", m.admitWaitMsSum)
	sh.vars.Set("admission_wait_ms_count", m.admitWaitCount)

	sh.Gauge("inflight_requests", func() any { return sh.gate.depth() })
	sh.Gauge("batch_occupancy_count", func() any { return engineStats().Steps })
	sh.Gauge("batch_occupancy_sum", func() any { return engineStats().FlowSteps })
	sh.Gauge("flows_admitted_total", func() any { return engineStats().FlowsAdmitted })
	sh.Gauge("flows_retired_total", func() any { return engineStats().FlowsRetired })
	return m
}

// observeAdmissionWait records one request's wait between acceptance
// and the step boundary that admitted its flows.
func (m *metrics) observeAdmissionWait(class string, d time.Duration) {
	m.admitWaitMsSum.AddFloat(class, float64(d)/float64(time.Millisecond))
	m.admitWaitCount.Add(class, 1)
}
