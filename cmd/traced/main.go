// Command traced serves on-demand trace generation over HTTP from a
// saved synthesizer checkpoint — the "generate N flows of class X"
// capability as a long-lived service instead of a batch CLI run.
//
// Produce a checkpoint once, then serve it:
//
//	tracegen -classes amazon,teams -save model.ckpt
//	traced -model model.ckpt -addr :8080
//	curl -d '{"class":"amazon","count":4,"seed":7}' localhost:8080/v1/generate > amazon.pcap
//
// Endpoints:
//
//	POST /v1/generate        {class, count, seed?, format?, timeout_ms?} → pcap or nprint CSV
//	GET  /healthz            liveness
//	GET  /readyz             readiness (503 while draining); bare probes get plain text
//	GET  /readyz?verbose=1   JSON: queue depth, in-flight flows, checkpoint coordinate,
//	                         DDIM steps, precision, classes, uptime — what tracerouter scores on
//	GET  /metrics            expvar counters: occupancy, admission wait, latency
//
// Requests carrying a seed are replayable: the body is a pure function
// of (checkpoint, class, count, seed), bit-identical on every replica —
// continuous batching never leaks batch composition into the bytes.
// Responses stamp X-Traced-Seed, X-Traced-Flows, X-Traced-Checkpoint
// (sha256 of the model file, plus "/v<N>" from core.OutputVersion 2
// on, so code that changes served bytes changes the coordinate),
// X-Traced-DDIM-Steps and X-Traced-Precision, the coordinates
// tracerouter keys its content-addressed response cache on.
//
// -ddim-steps overrides the checkpoint's sampler budget — the
// fidelity-vs-speed lever `traceval frontier` measures. Replicas behind
// one router must agree on it, or the router refuses to cache (mixed
// budgets produce different bytes for the same seed). Weights always
// run at fp32; X-Traced-Precision stays on the wire as that constant.
// Overload answers 429 with Retry-After (bounded admission gate);
// SIGTERM/SIGINT closes the same gate and waits for every request that
// holds a slot before the engine and the listener stop.
//
// On startup the bound address is printed to stdout as a single
// machine-parseable line, "ADDR=host:port" — with -addr :0 this is how
// a parent process (tracerouter's managed mode, scripts, tests)
// discovers the ephemeral port.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"trafficdiff/internal/core"
	"trafficdiff/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("traced: ")
	var (
		model    = flag.String("model", "", "checkpoint written by tracegen -save (required)")
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address (:0 picks an ephemeral port)")
		queue    = flag.Int("queue", 64, "max requests concurrently inside the service; overflow gets 429")
		inflight = flag.Int("max-inflight", 16, "max flows simultaneously in the denoising batch")
		postWk   = flag.Int("post-workers", 2, "post-processing workers behind the step loop")
		stepRows = flag.Int("step-rows", 8, "max rows per denoiser forward, least-remaining-work first (negative = unlimited)")
		timeout  = flag.Duration("timeout", 60*time.Second, "per-request deadline ceiling")
		maxFlows = flag.Int("max-flows", 64, "max flows per request")
		seedBase = flag.Uint64("seed-base", 1, "seed base for requests without an explicit seed")
		drain    = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget")
		gcPct    = flag.Int("gc-percent", 400, "GOGC for the serving process (heap is small; fewer GC cycles = less tail latency)")
		procs    = flag.Int("procs", 0, "GOMAXPROCS floor; 0 = raise to 2 so the network gets polled while compute runs")
		pprofA   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); off when empty")
		ddim     = flag.Int("ddim-steps", -1, "override the checkpoint's DDIM step budget (0 = full DDPM; negative = keep checkpoint setting)")
	)
	flag.Parse()
	// The serving heap is a few MB; default GOGC=100 makes the collector
	// run every ~25ms under load, and on a single-CPU host each
	// concurrent mark phase steals up to ~12ms of wall clock — pure p95
	// tail. Trading heap headroom for fewer cycles is free here.
	debug.SetGCPercent(*gcPct)
	// With GOMAXPROCS=1 the Go scheduler only reaches its netpoll check
	// when the run queues are empty — and under load the step loop keeps
	// them full, so socket readiness is discovered by sysmon's ~10ms
	// fallback poll instead. A second P keeps a thread free to poll the
	// network, halving observed request p50 on single-CPU hosts.
	floor := *procs
	if floor <= 0 {
		floor = 2
	}
	if runtime.GOMAXPROCS(0) < floor {
		runtime.GOMAXPROCS(floor)
	}
	if *pprofA != "" {
		// Separate listener from the API so profiling is never exposed
		// on the serving address by accident.
		go func() {
			log.Printf("pprof: %v", http.ListenAndServe(*pprofA, nil))
		}()
	}
	cfg := serve.Config{
		QueueDepth:         *queue,
		MaxInFlight:        *inflight,
		PostWorkers:        *postWk,
		MaxStepRows:        *stepRows,
		RequestTimeout:     *timeout,
		MaxFlowsPerRequest: *maxFlows,
		SeedBase:           *seedBase,
	}
	if err := run(*model, *addr, cfg, *drain, *ddim); err != nil {
		log.Fatal(err)
	}
}

func run(model, addr string, cfg serve.Config, drain time.Duration, ddimSteps int) error {
	if model == "" {
		return fmt.Errorf("-model is required (produce one with: tracegen -save model.ckpt)")
	}
	// Read the checkpoint once: the bytes feed both the loader and the
	// content digest that keys router-side response caches. Seeded
	// generation is a pure function of (checkpoint, class, count, seed,
	// DDIM steps), so the digest pins the "checkpoint" coordinate.
	data, err := os.ReadFile(model)
	if err != nil {
		return err
	}
	digest := fmt.Sprintf("sha256:%x", sha256.Sum256(data))
	synth, err := core.Load(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("loading checkpoint: %w", err)
	}
	cfg.CheckpointDigest = digest
	if ddimSteps >= 0 {
		synth.SetDDIMSteps(ddimSteps)
	}
	log.Printf("loaded checkpoint %s (classes: %s, digest %s, ddim %d)",
		model, strings.Join(synth.Classes(), ","), digest, synth.DDIMSteps())

	srv, err := serve.New(synth, cfg)
	if err != nil {
		return fmt.Errorf("starting engine: %w", err)
	}
	srv.PublishExpvar("traced")
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// The e2e harness parses this line to find an ephemeral port.
	log.Printf("listening on %s", ln.Addr())
	// Machine-parseable bound-address line on stdout (logs go to
	// stderr): with -addr :0 a supervising router or test harness reads
	// exactly one "ADDR=host:port" line to find the ephemeral port,
	// with no race against the listener coming up.
	fmt.Printf("ADDR=%s\n", ln.Addr())

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case got := <-sig:
		log.Printf("received %s; draining in-flight requests", got)
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		log.Printf("drained cleanly")
		return nil
	}
}
