// Command tracerouter is the cluster front tier for traced: it spreads
// generation requests over the traced replicas it is given, and serves
// repeat seeded requests from a content-addressed response cache
// without touching a replica at all. Each replica runs on its own host
// (traced already runs one step loop per CPU, so a second replica on
// the same host adds contention, not cores); someone else starts them:
//
//	traced -model model.ckpt -addr :8081 &
//	traced -model model.ckpt -addr :8082 &
//	tracerouter -addr :8090 -replicas http://127.0.0.1:8081,http://127.0.0.1:8082
//
// Endpoints mirror traced's (POST /v1/generate, /healthz, /readyz,
// /metrics) plus GET /replicas (pool state as JSON); the HTTP shell
// behind them — drain gate, metrics map, plain handlers — is traced's
// own, and requests decode into traced's request type. The routing
// policy is fixed: class affinity at weight 3 plus queue depth at
// weight 2 sends same-class requests where the engine's continuous
// batch can merge them, until that replica's load outweighs the merge.
// Backpressure propagates honestly: when every replica sheds with 429
// the router answers 429 with the max Retry-After seen, never 502.
//
// Seeded generation is a pure function of (checkpoint digest, class,
// count, seed, DDIM steps), so cached responses are byte-identical to
// replica-served ones; -cache-validate N re-proves that against a live
// replica on every Nth hit. The digest is the replica's
// X-Traced-Checkpoint: the model file's sha256, plus "/v<N>" from
// output version 2 on, so replicas running code that makes different
// bytes disagree on it and the router stops caching.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"trafficdiff/internal/cluster"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracerouter: ")
	var (
		addr     = flag.String("addr", "127.0.0.1:8090", "listen address (:0 picks an ephemeral port)")
		replicas = flag.String("replicas", "", "comma-separated replica base URLs (required)")

		maxInfl  = flag.Int("replica-max-inflight", 32, "max requests the router keeps in flight per replica")
		probeInt = flag.Duration("probe-interval", 250*time.Millisecond, "replica health-probe cadence")

		cacheEntries  = flag.Int("cache-entries", 4096, "response cache entry bound (negative disables the cache)")
		cacheBytes    = flag.Int64("cache-bytes", 256<<20, "response cache byte bound")
		cacheValidate = flag.Int("cache-validate", 0, "re-verify every Nth cache hit against a replica (0 = off)")

		drain  = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight router requests")
		pprofA = flag.String("pprof", "", "serve net/http/pprof on this address; off when empty")
	)
	flag.Parse()
	if *pprofA != "" {
		go func() {
			log.Printf("pprof: %v", http.ListenAndServe(*pprofA, nil))
		}()
	}
	poolCfg := cluster.PoolConfig{ProbeInterval: *probeInt, MaxInFlight: *maxInfl}
	cfg := cluster.Config{CacheEntries: *cacheEntries, CacheBytes: *cacheBytes, ValidateEvery: *cacheValidate}
	if err := run(*addr, *replicas, poolCfg, cfg, *drain); err != nil {
		log.Fatal(err)
	}
}

func run(addr, replicas string, poolCfg cluster.PoolConfig, cfg cluster.Config, drain time.Duration) error {
	pool := cluster.NewPool(poolCfg)
	defer pool.Close()
	for _, u := range strings.Split(replicas, ",") {
		u = strings.TrimSpace(strings.TrimSuffix(u, "/"))
		if u == "" {
			continue
		}
		pool.Add(u)
		log.Printf("replica: %s", u)
	}
	if pool.Size() == 0 {
		return fmt.Errorf("-replicas is required: no usable replica URLs in %q", replicas)
	}

	rt := cluster.NewRouter(pool, cfg)
	rt.PublishExpvar("tracerouter")
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("listening on %s", ln.Addr())
	// Same machine-parseable contract as traced: supervisors read one
	// ADDR= line from stdout to find an ephemeral port without races.
	fmt.Printf("ADDR=%s\n", ln.Addr())

	errCh := make(chan error, 1)
	go func() { errCh <- rt.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case got := <-sig:
		log.Printf("received %s; draining", got)
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := rt.Shutdown(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		log.Printf("drained cleanly")
		return nil
	}
}
