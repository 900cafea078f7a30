// Command tracerouter is the cluster front tier for traced: it spreads
// generation requests over N traced replicas, serves repeat seeded
// requests from a content-addressed response cache without touching a
// replica at all, and (in managed mode) autoscales local traced child
// processes against queue-depth metrics.
//
// Static mode routes over replicas someone else runs:
//
//	traced -model model.ckpt -addr :8081 &
//	traced -model model.ckpt -addr :8082 &
//	tracerouter -addr :8090 -replicas http://127.0.0.1:8081,http://127.0.0.1:8082
//
// Managed mode spawns and scales its own replicas:
//
//	tracerouter -addr :8090 -traced-bin ./traced -model model.ckpt \
//	    -min-replicas 2 -max-replicas 4
//
// Endpoints mirror traced's (POST /v1/generate, /healthz, /readyz,
// /metrics) plus GET /replicas (pool state as JSON); the HTTP shell
// behind them — drain gate, metrics map, plain handlers — is traced's
// own, and requests decode into traced's request type. Routing policy is
// pluggable: -routing-scorers "class-affinity:3,queue-depth:2" sends
// same-class requests where the engine's continuous batch can merge
// them; "p2c" selects power-of-two-choices. Backpressure propagates
// honestly: when every replica sheds with 429 the router answers 429
// with the max Retry-After seen, never 502.
//
// Seeded generation is a pure function of (checkpoint digest, class,
// count, seed, DDIM steps, precision), so cached responses are byte-identical to
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
		replicas = flag.String("replicas", "", "comma-separated replica base URLs (static mode)")

		model      = flag.String("model", "", "checkpoint for managed replicas (managed mode; pairs with -traced-bin)")
		tracedBin  = flag.String("traced-bin", "traced", "traced binary to spawn in managed mode")
		tracedArgs = flag.String("traced-args", "", "extra space-separated flags passed to spawned traced processes")
		minReps    = flag.Int("min-replicas", 1, "managed mode: minimum replicas")
		maxReps    = flag.Int("max-replicas", 4, "managed mode: maximum replicas")

		scorers  = flag.String("routing-scorers", "class-affinity:3,queue-depth:2", `weighted routing policy, e.g. "class-affinity:3,queue-depth:2"; "p2c" = power-of-two-choices`)
		maxInfl  = flag.Int("replica-max-inflight", 32, "max requests the router keeps in flight per replica")
		probeInt = flag.Duration("probe-interval", 250*time.Millisecond, "replica health-probe cadence")

		cacheEntries  = flag.Int("cache-entries", 4096, "response cache entry bound (negative disables the cache)")
		cacheBytes    = flag.Int64("cache-bytes", 256<<20, "response cache byte bound")
		cacheValidate = flag.Int("cache-validate", 0, "re-verify every Nth cache hit against a replica (0 = off)")

		scaleLoad  = flag.Float64("scale-up-load", 4, "managed mode: avg per-replica load (queue+in-flight) that counts a tick toward scale-up")
		scaleUpT   = flag.Int("scale-up-ticks", 2, "managed mode: consecutive loaded ticks before scaling up")
		scaleDownT = flag.Int("scale-down-ticks", 20, "managed mode: consecutive idle ticks before scaling down")
		scaleInt   = flag.Duration("scale-interval", 500*time.Millisecond, "managed mode: autoscale decision cadence")

		drain  = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget (router drain + replica drains)")
		pprofA = flag.String("pprof", "", "serve net/http/pprof on this address; off when empty")
	)
	flag.Parse()
	if *pprofA != "" {
		go func() {
			log.Printf("pprof: %v", http.ListenAndServe(*pprofA, nil))
		}()
	}
	if err := run(routerOptions{
		addr: *addr, replicas: *replicas,
		model: *model, tracedBin: *tracedBin, tracedArgs: *tracedArgs,
		minReplicas: *minReps, maxReplicas: *maxReps,
		scorers: *scorers, maxInflight: *maxInfl, probeInterval: *probeInt,
		cacheEntries: *cacheEntries, cacheBytes: *cacheBytes, cacheValidate: *cacheValidate,
		scaleLoad: *scaleLoad, scaleUpTicks: *scaleUpT, scaleDownTicks: *scaleDownT, scaleInterval: *scaleInt,
		drain: *drain,
	}); err != nil {
		log.Fatal(err)
	}
}

type routerOptions struct {
	addr, replicas               string
	model, tracedBin, tracedArgs string
	minReplicas, maxReplicas     int
	scorers                      string
	maxInflight                  int
	probeInterval                time.Duration
	cacheEntries                 int
	cacheBytes                   int64
	cacheValidate                int
	scaleLoad                    float64
	scaleUpTicks, scaleDownTicks int
	scaleInterval                time.Duration
	drain                        time.Duration
}

func run(o routerOptions) error {
	static := o.replicas != ""
	managed := o.model != ""
	if static == managed {
		return fmt.Errorf("exactly one of -replicas (static) or -model (managed) is required")
	}
	policy, err := cluster.ParseScorers(o.scorers)
	if err != nil {
		return err
	}

	pool := cluster.NewPool(cluster.PoolConfig{
		ProbeInterval: o.probeInterval,
		MaxInFlight:   o.maxInflight,
	})
	defer pool.Close()

	var scaler *cluster.Scaler
	if managed {
		var extra []string
		if strings.TrimSpace(o.tracedArgs) != "" {
			extra = strings.Fields(o.tracedArgs)
		}
		scaler, err = cluster.NewScaler(pool, cluster.ScalerConfig{
			Min: o.minReplicas, Max: o.maxReplicas,
			Interval:    o.scaleInterval,
			ScaleUpLoad: o.scaleLoad,
			UpTicks:     o.scaleUpTicks, DownTicks: o.scaleDownTicks,
			DrainTimeout: o.drain,
			Spawn:        cluster.TracedSpawner(o.tracedBin, o.model, extra),
			Logf:         log.Printf,
		})
		if err != nil {
			return err
		}
		log.Printf("managing %d-%d traced replicas (%s -model %s)", o.minReplicas, o.maxReplicas, o.tracedBin, o.model)
	} else {
		for _, u := range strings.Split(o.replicas, ",") {
			u = strings.TrimSpace(strings.TrimSuffix(u, "/"))
			if u == "" {
				continue
			}
			pool.Add(u)
			log.Printf("replica: %s", u)
		}
		if pool.Size() == 0 {
			return fmt.Errorf("-replicas: no usable URLs in %q", o.replicas)
		}
	}

	rt := cluster.NewRouter(pool, cluster.Config{
		Scorers:       policy,
		CacheEntries:  o.cacheEntries,
		CacheBytes:    o.cacheBytes,
		ValidateEvery: o.cacheValidate,
	})
	rt.PublishExpvar("tracerouter")
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	log.Printf("listening on %s (policy %q)", ln.Addr(), o.scorers)
	// Same machine-parseable contract as traced: supervisors read one
	// ADDR= line from stdout to find an ephemeral port without races.
	fmt.Printf("ADDR=%s\n", ln.Addr())

	errCh := make(chan error, 1)
	go func() { errCh <- rt.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if scaler != nil {
			scaler.Close()
		}
		return err
	case got := <-sig:
		log.Printf("received %s; draining", got)
		ctx, cancel := context.WithTimeout(context.Background(), o.drain)
		defer cancel()
		if err := rt.Shutdown(ctx); err != nil {
			if scaler != nil {
				scaler.Close()
			}
			return fmt.Errorf("drain: %w", err)
		}
		if scaler != nil {
			scaler.Close()
		}
		log.Printf("drained cleanly")
		return nil
	}
}
