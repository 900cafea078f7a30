package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net"
	"time"

	"trafficdiff/internal/cluster"
	"trafficdiff/internal/core"
	"trafficdiff/internal/flow"
	"trafficdiff/internal/serve"
	"trafficdiff/internal/workload"
)

// modelSpec is the benchmark's fixed model: geometry, training budget
// and classes. paperModel is what every measured run uses; smokeModel
// is the tiny stand-in the tests run so they finish in seconds.
type modelSpec struct {
	Name          string
	Config        core.Config
	Classes       []string
	FlowsPerClass int
	// OfflineSteps and ServeSteps are the DDIM budgets of the offline
	// and the served workloads.
	OfflineSteps, ServeSteps int
}

// paperModel is core.DefaultConfig geometry (16×136 model image, MLP
// hidden 192, LoRA rank 8, ControlNet on, guidance 2, T=120) with
// training cut to 60+60 steps: weight quality does not change timing,
// and projection/repair keep every output a valid trace.
func paperModel() modelSpec {
	cfg := core.DefaultConfig()
	cfg.BaseSteps, cfg.FineTuneSteps = 60, 60
	return modelSpec{
		Name:          "paper",
		Config:        cfg,
		Classes:       []string{"amazon", "teams", "netflix", "zoom"},
		FlowsPerClass: 8,
		OfflineSteps:  cfg.DDIMSteps,
		ServeSteps:    4,
	}
}

// smokeModel is the Rows 16, Hidden 48 model the repo's serve tests
// use, with the same four classes so every workload's inputs are valid.
func smokeModel() modelSpec {
	cfg := core.DefaultConfig()
	cfg.Rows, cfg.DownH, cfg.DownW = 16, 2, 16
	cfg.Hidden = 48
	cfg.TimeSteps = 30
	cfg.BaseSteps, cfg.FineTuneSteps = 25, 35
	cfg.Batch = 8
	cfg.DDIMSteps = 6
	return modelSpec{
		Name:          "smoke",
		Config:        cfg,
		Classes:       []string{"amazon", "teams", "netflix", "zoom"},
		FlowsPerClass: 4,
		OfflineSteps:  cfg.DDIMSteps,
		ServeSteps:    4,
	}
}

// trainSeed seeds the training flows; it is a constant of the
// benchmark, independent of -seed (which only draws request streams).
const trainSeed = 11

// trainFlows draws the model's training flows, grouped by class.
func trainFlows(m modelSpec) (map[string][]*flow.Flow, error) {
	ds, err := workload.Generate(workload.Config{
		Seed: trainSeed, FlowsPerClass: m.FlowsPerClass, Only: m.Classes,
		MaxPacketsPerFlow: m.Config.Rows,
	})
	if err != nil {
		return nil, err
	}
	byClass := map[string][]*flow.Flow{}
	for _, f := range ds.Flows {
		byClass[f.Label] = append(byClass[f.Label], f)
	}
	return byClass, nil
}

// trainCheckpoint trains the model once and returns its checkpoint
// bytes; every workload loads its synthesizers from them.
func trainCheckpoint(m modelSpec) ([]byte, error) {
	synth, err := core.New(m.Config, m.Classes)
	if err != nil {
		return nil, err
	}
	byClass, err := trainFlows(m)
	if err != nil {
		return nil, err
	}
	if _, err := synth.FineTune(byClass); err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	var buf bytes.Buffer
	if err := synth.Save(&buf); err != nil {
		return nil, fmt.Errorf("saving checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// replica is one in-process traced: a synthesizer loaded from the
// checkpoint behind serve.New on a loopback listener.
type replica struct {
	synth  *core.Synthesizer
	srv    *serve.Server
	addr   string
	served chan error
}

// stack is what one workload measures: a bare synthesizer
// (offline_bulk), one replica (serve_*), or a router over two replicas
// (router_repeat). addr is where the load goes.
type stack struct {
	synth    *core.Synthesizer
	replicas []*replica
	pool     *cluster.Pool
	router   *cluster.Router
	routed   chan error
	addr     string
	// clients are every connection dialled through dial, so that
	// reconcile can set the servers' counters against what was sent.
	clients []*client
}

// stackKind selects the tiers a stack builds.
type stackKind int

const (
	stackOffline stackKind = iota // synthesizer only
	stackServe                    // one replica
	stackRouter                   // router over two replicas
)

const routerReplicas = 2

// buildStack loads the checkpoint and brings the tiers up as traced and
// tracerouter would with their default flags. It does not warm up.
func buildStack(ckpt []byte, kind stackKind, steps int) (*stack, error) {
	st := &stack{}
	if kind == stackOffline {
		synth, err := core.Load(bytes.NewReader(ckpt))
		if err != nil {
			return nil, fmt.Errorf("loading checkpoint: %w", err)
		}
		synth.SetDDIMSteps(steps)
		st.synth = synth
		return st, nil
	}
	digest := fmt.Sprintf("sha256:%x", sha256.Sum256(ckpt))
	n := 1
	if kind == stackRouter {
		n = routerReplicas
	}
	for i := 0; i < n; i++ {
		rep, err := startReplica(ckpt, digest, steps)
		if err != nil {
			st.close()
			return nil, err
		}
		st.replicas = append(st.replicas, rep)
	}
	st.synth = st.replicas[0].synth
	st.addr = st.replicas[0].addr
	if kind == stackServe {
		return st, nil
	}

	policy, err := cluster.ParseScorers("class-affinity:3,queue-depth:2")
	if err != nil {
		st.close()
		return nil, err
	}
	st.pool = cluster.NewPool(cluster.PoolConfig{})
	for _, rep := range st.replicas {
		st.pool.Add("http://" + rep.addr)
	}
	st.router = cluster.NewRouter(st.pool, cluster.Config{Scorers: policy})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	st.addr = ln.Addr().String()
	st.routed = make(chan error, 1)
	go func() { st.routed <- st.router.Serve(ln) }()
	// The router keys its cache only while every replica is healthy and
	// they agree on the checkpoint, so wait for the first probe round.
	deadline := time.Now().Add(10 * time.Second)
	for st.pool.Healthy() < n {
		if time.Now().After(deadline) {
			st.close()
			return nil, fmt.Errorf("pool: %d of %d replicas healthy after 10s", st.pool.Healthy(), n)
		}
		st.pool.Kick()
		time.Sleep(time.Millisecond)
	}
	return st, nil
}

func startReplica(ckpt []byte, digest string, steps int) (*replica, error) {
	synth, err := core.Load(bytes.NewReader(ckpt))
	if err != nil {
		return nil, fmt.Errorf("loading checkpoint: %w", err)
	}
	synth.SetDDIMSteps(steps)
	srv, err := serve.New(synth, serve.Config{CheckpointDigest: digest})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		// Stop the engine serve.New started; the listen error is the
		// one to report.
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	rep := &replica{synth: synth, srv: srv, addr: ln.Addr().String(), served: make(chan error, 1)}
	go func() { rep.served <- srv.Serve(ln) }()
	return rep, nil
}

// dial opens a load-generator connection to addr and remembers it for
// reconcile.
func (st *stack) dial(addr string) *client {
	c := newClient(addr)
	st.clients = append(st.clients, c)
	return c
}

// close drains and stops every tier and waits for their goroutines. It
// is safe on a partly built stack.
func (st *stack) close() error {
	for _, c := range st.clients {
		c.close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if st.router != nil {
		keep(st.router.Shutdown(ctx))
		if st.routed != nil {
			keep(<-st.routed)
		}
	}
	if st.pool != nil {
		st.pool.Close()
	}
	for _, rep := range st.replicas {
		keep(rep.srv.Shutdown(ctx))
		keep(<-rep.served)
	}
	return first
}
