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
// core.Engine, whose single step loop owns the in-flight denoising
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
// Shutdown drains: the gate closes to new admissions, in-flight
// requests run to completion and their handlers write full responses
// before the HTTP server stops accepting.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net"
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
// safe for concurrent Generate calls.
type Engine interface {
	Classes() []string
	Generate(ctx context.Context, class string, flowSeeds []uint64, onAdmit func()) (*core.GenerateResult, error)
	Stats() core.EngineStats
}

// Config parameterizes a Server. Zero values take the defaults noted
// on each field.
type Config struct {
	// QueueDepth bounds the requests concurrently inside the service
	// (waiting for admission or mid-generation); requests beyond it get
	// 429 (default 64).
	QueueDepth int
	// MaxInFlight caps the flows simultaneously in the denoising batch
	// (default 16). Larger values raise throughput under load; smaller
	// ones bound per-step latency.
	MaxInFlight int
	// PostWorkers is the number of post-processing workers behind the
	// step loop (default 2).
	PostWorkers int
	// MaxStepRows caps the rows per denoiser forward (default 8;
	// negative for unlimited). Stepping the requests with the least
	// remaining work first keeps a fresh request's time-to-first-result
	// small even when the batch is full of bulk work; see
	// core.EngineConfig.MaxStepRows.
	MaxStepRows int
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
	// on every generate response as X-Traced-Checkpoint, so a routing
	// tier can derive content-addressed cache keys and validate that a
	// replica serves the checkpoint the cache entry was built from.
	// Optional; empty means "unidentified".
	CheckpointDigest string
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 16
	}
	if c.PostWorkers <= 0 {
		c.PostWorkers = 2
	}
	if c.MaxStepRows == 0 {
		c.MaxStepRows = 8
	}
	if c.MaxStepRows < 0 {
		c.MaxStepRows = 0 // explicit "unlimited"
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
	eng Engine
	// ownedEngine is non-nil when New built the engine itself; Shutdown
	// closes it after the drain.
	ownedEngine *core.Engine
	cfg         Config
	classes     map[string]bool

	gate *gate
	met  *metrics

	// ddimSteps reports the engine's live DDIM budget for readiness
	// payloads and response headers; zero when the engine doesn't
	// expose one (plain Engine implementations).
	ddimSteps func() int
	// start anchors the uptime reported on /readyz?verbose=1.
	start time.Time

	draining atomic.Bool
	seedCtr  atomic.Uint64
	inflight sync.WaitGroup

	httpSrv *http.Server
}

// New builds a Server over a fine-tuned synthesizer, starting a
// continuous-batching core.Engine sized by cfg. Callers must
// eventually Shutdown, which drains and closes the engine.
func New(synth *core.Synthesizer, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	eng, err := core.NewEngine(synth, core.EngineConfig{
		MaxInFlight: cfg.MaxInFlight,
		PostWorkers: cfg.PostWorkers,
		MaxStepRows: cfg.MaxStepRows,
	})
	if err != nil {
		return nil, err
	}
	s := NewWithEngine(eng, cfg)
	s.ownedEngine = eng
	return s, nil
}

// NewWithEngine builds a Server over a caller-owned engine; Shutdown
// drains the server but leaves the engine running (the caller closes
// it).
func NewWithEngine(eng Engine, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		eng:     eng,
		cfg:     cfg,
		classes: map[string]bool{},
		gate:    newGate(cfg.QueueDepth),
		start:   time.Now(),
	}
	if d, ok := eng.(interface{ DDIMSteps() int }); ok {
		s.ddimSteps = d.DDIMSteps
	} else {
		s.ddimSteps = func() int { return 0 }
	}
	for _, c := range eng.Classes() {
		s.classes[c] = true
	}
	s.met = newMetrics(eng.Classes(), s.gate.depth, eng.Stats)
	s.httpSrv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	return s
}

// Handler returns the service mux: POST /v1/generate plus /healthz,
// /readyz and the expvar-backed /metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/generate", s.handleGenerate)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// Serve accepts connections on ln until Shutdown. A clean shutdown
// returns nil.
func (s *Server) Serve(ln net.Listener) error {
	err := s.httpSrv.Serve(ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// PublishExpvar registers the server's metrics map in the process-wide
// expvar registry under name. Call at most once per name per process
// (expvar forbids duplicate registration).
func (s *Server) PublishExpvar(name string) {
	expvar.Publish(name, s.met.vars)
}

// Shutdown drains the service: new requests are refused, requests
// already inside the gate run to completion (or expiry), their
// handlers finish writing, the engine (when owned) closes, then the
// HTTP server (if Serve was used) stops. It returns ctx's error if
// draining outlives the context.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.gate.close()
	drained := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		return ctx.Err()
	}
	if s.ownedEngine != nil {
		s.ownedEngine.Close()
	}
	return s.httpSrv.Shutdown(ctx)
}

// generateRequest is the POST /v1/generate body.
type generateRequest struct {
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

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.met.badRequest.Add(1)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.draining.Load() {
		// Same terminal outcome as the gateClosed branch below: the
		// request arrived inside the drain window. Without a counter
		// these rejections were invisible in /metrics, so a load
		// harness could never reconcile its observed 503s against the
		// server's accounting.
		s.met.drainRejected.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	var gr generateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&gr); err != nil {
		s.met.badRequest.Add(1)
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if gr.Count == 0 {
		gr.Count = 1
	}
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
	format := gr.Format
	if format == "" {
		format = "pcap"
	}
	if format != "pcap" && format != "csv" {
		s.met.badRequest.Add(1)
		http.Error(w, `format must be "pcap" or "csv"`, http.StatusBadRequest)
		return
	}

	seed := s.deriveSeed(gr.Seed)
	timeout := s.cfg.RequestTimeout
	if gr.TimeoutMs > 0 {
		if d := time.Duration(gr.TimeoutMs) * time.Millisecond; d < timeout {
			timeout = d
		}
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
		w.Header().Set("Retry-After", "1")
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}

	start := time.Now()
	class := gr.Class
	// onAdmit fires on the engine's step loop the moment the request's
	// flows join the in-flight batch; the elapsed time is exactly the
	// admission wait (gate + engine FIFO).
	onAdmit := func() { s.met.observeAdmissionWait(class, time.Since(start)) }
	s.inflight.Add(1)
	defer s.inflight.Done()
	defer s.gate.release()
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
		s.writeBody(w, seed, format, res)
		s.met.completed.Add(1)
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

// writeBody encodes the generated flows and streams them out. The body
// is buffered first so a failed generation can never leave a
// half-written success response.
func (s *Server) writeBody(w http.ResponseWriter, seed uint64, format string, res *core.GenerateResult) {
	var buf bytes.Buffer
	switch format {
	case "csv":
		cells := 0
		for _, m := range res.Matrices {
			cells += len(m.Data)
		}
		buf.Grow(3*cells + 128*len(res.Matrices)) // at most "-1," per cell and a header line: ~90 KB a flow, sized once
		for _, m := range res.Matrices {
			if err := nprint.WriteCSV(&buf, m); err != nil {
				http.Error(w, "encoding csv: "+err.Error(), http.StatusInternalServerError)
				return
			}
		}
		w.Header().Set("Content-Type", "text/csv")
	default:
		pw, err := pcap.NewWriter(&buf, pcap.LinkTypeEthernet)
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
		w.Header().Set("Content-Type", "application/vnd.tcpdump.pcap")
	}
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.Header().Set("X-Traced-Seed", strconv.FormatUint(seed, 10))
	w.Header().Set("X-Traced-Flows", strconv.Itoa(len(res.Flows)))
	// Cache-validation headers: a routing tier keys its response cache
	// on (digest, class, count, seed, DDIM steps, precision, format);
	// echoing the replica's digest, DDIM budget and precision lets it
	// assert the entry it is about to store matches the configuration
	// that produced the bytes.
	if s.cfg.CheckpointDigest != "" {
		w.Header().Set("X-Traced-Checkpoint", s.cfg.CheckpointDigest)
	}
	w.Header().Set("X-Traced-DDIM-Steps", strconv.Itoa(s.ddimSteps()))
	w.Header().Set("X-Traced-Precision", Precision)
	if _, err := w.Write(buf.Bytes()); err != nil {
		// The client went away mid-response; nothing to send it, but
		// the failure is visible in /metrics.
		s.met.writeErrors.Add(1)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeText(w, http.StatusOK, "ok")
}

// Precision is the inference weight precision every response is
// produced at, stamped as X-Traced-Precision and reported on
// /readyz?verbose=1. It is a constant, but routers still key caches on
// it, so it stays on the wire.
const Precision = "fp32"

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
	Precision        string   `json:"precision"`
	Classes          []string `json:"classes,omitempty"`
	UptimeMs         int64    `json:"uptime_ms"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("verbose") != "1" {
		if s.draining.Load() {
			s.writeText(w, http.StatusServiceUnavailable, "draining")
			return
		}
		s.writeText(w, http.StatusOK, "ready")
		return
	}
	status, code := "ready", http.StatusOK
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	st := s.eng.Stats()
	payload := ReadyStatus{
		Status:           status,
		QueueDepth:       s.gate.depth(),
		InFlightFlows:    int64(st.FlowsAdmitted) - int64(st.FlowsCompleted) - int64(st.FlowsRetired),
		CheckpointDigest: s.cfg.CheckpointDigest,
		DDIMSteps:        s.ddimSteps(),
		Precision:        Precision,
		Classes:          s.eng.Classes(),
		UptimeMs:         time.Since(s.start).Milliseconds(),
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(payload); err != nil {
		s.met.writeErrors.Add(1)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write([]byte(s.met.vars.String())); err != nil {
		s.met.writeErrors.Add(1)
	}
}

// writeText writes a small plain-text response, routing write failures
// to the metrics the way every handler here does.
func (s *Server) writeText(w http.ResponseWriter, code int, body string) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(code)
	if _, err := w.Write([]byte(body + "\n")); err != nil {
		s.met.writeErrors.Add(1)
	}
}
