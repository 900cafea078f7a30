package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"trafficdiff/internal/cluster"
	"trafficdiff/internal/core"
	"trafficdiff/internal/diffusion"
	"trafficdiff/internal/imagerep"
	"trafficdiff/internal/lora"
	"trafficdiff/internal/nn"
	"trafficdiff/internal/nprint"
	"trafficdiff/internal/stats"
	"trafficdiff/internal/tensor"
)

// layerMinDur is how long each layer call is repeated for in total; the
// median call time is reported.
const layerMinDur = 300 * time.Millisecond

// probeRounds is how many rounds the probes are interleaved over. The
// layer table subtracts one probe's median from another's, which only
// means something if both saw the same host: a shared 2-core VM speeds
// up and slows down by tens of percent over seconds, so every probe
// gets a slice of every round instead of one stretch of its own.
const probeRounds = 3

// maxCallsPerSlice bounds a probe's calls in one round: a microsecond
// call needs no more for a median, and every call is a span.
const maxCallsPerSlice = 1000

// batchRows are the batch sizes the kernels, the denoiser and the
// scheduler are timed at: a lone request, a full step-row budget, an
// offline call.
var batchRows = []int{1, 8, 64}

// engineDefaults is the engine serve.New builds with traced's default
// flags.
var engineDefaults = core.EngineConfig{MaxInFlight: 16, PostWorkers: 2, MaxStepRows: 8}

// probe is one timed call into a layer's public functions, made from
// the benchmark's side with the workload's shapes.
type probe struct {
	key, layer, detail string
	// fn makes the call once; rep numbers the calls (the span's request
	// id). A probe that times its own inner calls (the scheduler pass)
	// sets own and records through the layerBench itself.
	fn  func(rep int)
	own bool
	rep int
}

// layerBench runs the probes, top of the request path first so that
// every span finds its parent, and assembles the per-layer metrics and
// the layer table.
type layerBench struct {
	m      modelSpec
	tr     *tracer
	minDur time.Duration
	out    map[string]metric
	probes []*probe
	// series holds call times in microseconds by internal key; us their
	// medians.
	series map[string][]float64
	us     map[string]float64
	errs   firstErr
	// closers tear the fixtures down after the rounds.
	closers []func() error
}

func (lb *layerBench) put(name string, value float64) {
	for _, d := range perLayer {
		if d.Name == name {
			lb.out[name] = metric{Value: value, Unit: d.Unit}
			return
		}
	}
	// A name missing from the table is a bug in this file, caught by
	// TestSmoke.
	lb.out[name] = metric{Value: value, Unit: "?"}
}

func (lb *layerBench) add(key, layer, detail string, fn func(rep int)) {
	lb.probes = append(lb.probes, &probe{key: key, layer: layer, detail: detail, fn: fn})
}

func (lb *layerBench) sample(key string, d time.Duration) {
	lb.series[key] = append(lb.series[key], float64(d)/float64(time.Microsecond))
}

// run makes one untimed call of every probe (arenas grow, connections
// open, the host wakes up), then interleaves them over probeRounds
// rounds: in each, every probe is called at least once and until its
// slice of minDur is used.
func (lb *layerBench) run() {
	lb.series = map[string][]float64{}
	for _, p := range lb.probes {
		p.fn(p.rep)
		p.rep++
	}
	lb.series = map[string][]float64{} // drop what the warm-up calls sampled
	slice := lb.minDur / probeRounds
	for round := 0; round < probeRounds; round++ {
		for _, p := range lb.probes {
			// Start every slice with no collection in flight. With all
			// the fixtures alive a cycle takes long enough to cover a
			// whole slice, and a probe that allocates would spend it
			// doing the previous probe's mark work (encode measured 15x
			// slow that way). Cycles a probe's own allocation triggers
			// still count against it.
			runtime.GC()
			begin := time.Now()
			for calls := 0; calls == 0 || time.Since(begin) < slice && calls < maxCallsPerSlice; calls++ {
				rep := p.rep
				p.rep++
				if p.own {
					p.fn(rep)
					continue
				}
				lb.sample(p.key, lb.tr.call(p.layer, p.detail, rep, func(int) { p.fn(rep) }))
			}
		}
	}
	for key, xs := range lb.series {
		lb.us[key] = median(xs)
	}
}

// firstErr keeps the first error of many timed calls, some of which run
// on worker goroutines.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (f *firstErr) note(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err != nil && f.err == nil {
		f.err = err
	}
}

func (f *firstErr) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// runTraced is the -trace 1 pass of one workload.
func runTraced(m modelSpec, ckpt []byte, name string, seed uint64, seconds float64, minDur time.Duration, tracePath string) (*runResult, error) {
	p, err := buildPlan(name, m, seed, seconds)
	if err != nil {
		return nil, err
	}
	res := &runResult{
		Workload: name, Seed: seed, Seconds: seconds, Trace: 1, Model: m.Name, ScheduleDigest: p.digest,
		Phases: map[string]counts{}, Metrics: map[string]metric{}, Valid: true,
	}
	lb := &layerBench{m: m, tr: newTracer(), minDur: minDur, out: res.Metrics, us: map[string]float64{}}
	for _, d := range perLayer {
		lb.put(d.Name, 0)
	}
	lb.put("loadgen.schedule_build_ms", p.buildMs)

	err = lb.tiers(ckpt)
	if err == nil {
		err = lb.synthesizer(ckpt)
	}
	if err == nil {
		lb.model()
		lb.run()
		lb.cacheOps()
		err = lb.errs.get()
	}
	for _, c := range lb.closers {
		if cerr := c(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, fmt.Errorf("layers: %w", err)
	}
	lb.derive()
	res.Table, res.TableNote = lb.table(p)

	if err := lb.workload(ckpt, p, res); err != nil {
		return nil, err
	}
	if tracePath != "" {
		if err := lb.tr.write(tracePath); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// tiers probes one uncontended 1-flow pcap request at each serving
// tier: through the router (a miss), straight to a replica over TCP,
// into the replica's handler.
func (lb *layerBench) tiers(ckpt []byte) error {
	st, err := buildStack(ckpt, stackRouter, lb.m.ServeSteps)
	if err != nil {
		return err
	}
	lb.closers = append(lb.closers, st.close)
	classes := lb.m.Classes
	// Every probe draws from its own seed space, so no request through
	// the router is ever a cache hit.
	req := func(space uint64, rep int) genRequest {
		return genRequest{Class: classes[rep%len(classes)], Count: 1, Seed: 0x1a7e_0000_0000_0000 + space<<40 + uint64(rep), Format: "pcap"}
	}
	post := func(c *client, g genRequest) {
		rep, err := c.generate(g)
		if err == nil {
			err = checkReply(g, rep)
		}
		lb.errs.note(err)
	}
	routed, direct := st.dial(st.addr), st.dial(st.replicas[0].addr)
	lb.add("cluster", "cluster", "router miss over TCP", func(rep int) { post(routed, req(0, rep)) })
	lb.add("serve", "serve", "replica over TCP", func(rep int) { post(direct, req(1, rep)) })
	handler := st.replicas[0].srv.Handler()
	lb.add("handler", "serve", "Handler via recorder", func(rep int) {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/generate", strings.NewReader(req(2, rep).body())))
		if rec.Code != http.StatusOK {
			lb.errs.note(fmt.Errorf("handler: status %d", rec.Code))
		}
	})

	return nil
}

// synthesizer probes an idle core.Engine, the Synthesizer call itself,
// and the two halves of that call the benchmark can reach from outside:
// postprocess and encode.
func (lb *layerBench) synthesizer(ckpt []byte) error {
	m := lb.m
	classes := m.Classes
	load := func(steps int) (*core.Synthesizer, error) {
		synth, err := core.Load(bytes.NewReader(ckpt))
		if err == nil {
			synth.SetDDIMSteps(steps)
		}
		return synth, err
	}
	one, err := load(m.ServeSteps)
	if err != nil {
		return err
	}
	many, err := load(m.OfflineSteps)
	if err != nil {
		return err
	}
	eng, err := core.NewEngine(one, engineDefaults)
	if err != nil {
		return err
	}
	lb.closers = append(lb.closers, func() error { eng.Close(); return nil })
	lb.add("engine", "engine", "idle Engine.Generate n=1", func(rep int) {
		_, err := eng.Generate(context.Background(), classes[rep%len(classes)], core.DeriveFlowSeeds(uint64(rep)+1, 1), nil)
		lb.errs.note(err)
	})
	lb.add("core_n1", "core", "GenerateWithFlowSeeds n=1", func(rep int) {
		_, err := one.GenerateWithFlowSeeds(classes[rep%len(classes)], core.DeriveFlowSeeds(uint64(rep)+1, 1))
		lb.errs.note(err)
	})
	lb.add("core_n64", "core", "GenerateWithFlowSeeds n=64", func(rep int) {
		_, err := many.GenerateWithFlowSeeds(classes[rep%len(classes)], core.DeriveFlowSeeds(uint64(rep)+1, offlineFlows))
		lb.errs.note(err)
	})

	// Postprocess: the public steps core runs on each sampled image,
	// fed a real flow's model-resolution image.
	byClass, err := trainFlows(m)
	if err != nil {
		return err
	}
	class := classes[0]
	img, err := one.EncodeFlow(byClass[class][0])
	if err != nil {
		return err
	}
	tpl, err := one.Template(class)
	if err != nil {
		return err
	}
	h, w := one.ModelShape()
	epoch := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	postOne := func() {
		up, err := imagerep.Upscale(&imagerep.Image{H: h, W: w, Pix: img.Data}, m.Config.DownH, m.Config.DownW)
		if err != nil {
			lb.errs.note(err)
			return
		}
		imagerep.Quantize(up)
		mat, err := imagerep.ToMatrix(up)
		if err != nil {
			lb.errs.note(err)
			return
		}
		tpl.ProtocolCompliance(mat)
		tpl.Compliance(mat)
		tpl.Project(mat)
		tpl.ProjectConstants(mat)
		_, _, err = nprint.ToPackets(mat, nprint.DecodeOptions{Repair: true, Start: epoch, Interval: 2 * time.Millisecond})
		lb.errs.note(err)
	}
	lb.add("post_n1", "postprocess", "one flow", func(int) { postOne() })
	// core spreads a call's flows over GOMAXPROCS workers; the 64-flow
	// table row is the wall time of doing the same.
	lb.add("post_n64", "postprocess", "64 flows on GOMAXPROCS workers", func(int) {
		sem := make(chan struct{}, runtime.GOMAXPROCS(0))
		var wg sync.WaitGroup
		for i := 0; i < offlineFlows; i++ {
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				postOne()
				<-sem
			}()
		}
		wg.Wait()
	})

	flow, err := one.GenerateWithFlowSeeds(class, core.DeriveFlowSeeds(1, 1))
	if err != nil {
		return err
	}
	for _, format := range []string{"pcap", "csv"} {
		body, err := encodeResult(format, flow)
		if err != nil {
			return err
		}
		lb.put("encode."+format+"_bytes_per_flow", float64(len(body)))
		lb.add("encode_"+format, "encode", format+", one flow", func(int) {
			_, err := encodeResult(format, flow)
			lb.errs.note(err)
		})
	}
	return nil
}

// model probes the scheduler, the denoiser forward and the forward's
// three large GEMMs on a model of the benchmark's geometry. Its weights
// are fresh: kernel time does not depend on their values, and the
// trained ones are private to the Synthesizer.
//
// The forward is timed from inside the scheduler's steps, through the
// forward override NewScheduler takes: a step span and its two forward
// spans are one real nesting, so the scheduler's self time is measured
// on the same call, not inferred from a separate loop.
func (lb *layerBench) model() {
	cfg := lb.m.Config
	h, w := cfg.Rows/cfg.DownH, nprint.BitsPerPacket/cfg.DownW
	d, hid, k := h*w, cfg.Hidden, len(lb.m.Classes)
	r := stats.NewRNG(trainSeed)
	base := diffusion.NewMLPDenoiser(r, h, w, hid, k)
	model := lora.NewAdaptedMLP(r, base, cfg.LoRARank, cfg.LoRAAlpha, k)
	sched := diffusion.NewSchedule(cfg.Schedule, cfg.TimeSteps)
	control := tensor.New(d).Randn(r, 1)

	for _, rows := range batchRows {
		budget := lb.m.ServeSteps
		if rows == offlineFlows {
			budget = lb.m.OfflineSteps
		}
		key := fmt.Sprintf("_r%d", rows)
		// One pass is one call's worth of scheduler work: admit rows
		// flows, step them to completion. Every step advances all of
		// them, so each Step is one sample at this row count.
		pass := func(rep int) {
			var stepSpan, forwards int
			var inStep, total, totalFwd time.Duration
			timed := func(tp *nn.Tape, xt *nn.V, ts []int, class []int, ctrl *tensor.Tensor) *nn.V {
				t0 := time.Now()
				out := model.Forward(tp, xt, ts, class, ctrl)
				t1 := time.Now()
				lb.tr.record("denoiser", "AdaptedMLP.Forward"+key, rep, stepSpan, t0, t1)
				lb.sample("forward"+key, t1.Sub(t0))
				inStep += t1.Sub(t0)
				forwards++
				return out
			}
			s := diffusion.NewScheduler(model, sched, timed)
			for i := 0; i < rows; i++ {
				spec := diffusion.FlowSpec{
					Class: i % k, GuidanceScale: cfg.GuidanceScale, DDIMSteps: budget,
					RNG: stats.NewRNG(uint64(rep*rows + i + 1)), Control: control,
					Out: make([]float32, d), JobRows: rows,
				}
				dur := lb.tr.call("scheduler", "Admit", rep, func(int) {
					_, err := s.Admit(spec)
					lb.errs.note(err)
				})
				lb.sample("admit"+key, dur)
				total += dur
			}
			for s.Active() > 0 {
				inStep = 0
				dur := lb.tr.call("scheduler", "Step"+key, rep, func(within int) {
					stepSpan = within // the step's forwards name it as their parent
					s.Step()
				})
				lb.sample("step"+key, dur)
				lb.sample("step_self"+key, dur-inStep)
				total += dur
				totalFwd += inStep
			}
			lb.sample("sched_pass"+key, total)
			lb.sample("forward_pass"+key, totalFwd)
			if rows == 1 {
				lb.put("scheduler.forwards_per_flow", float64(forwards))
			}
		}
		lb.probes = append(lb.probes, &probe{key: "sched_pass" + key, fn: pass, own: true})
	}

	for _, rows := range batchRows {
		x := tensor.New(rows, d).Randn(r, 1)
		hv := tensor.New(rows, hid).Randn(r, 1)
		wx := tensor.New(hid, d).Randn(r, 1)
		wc := tensor.New(hid, d).Randn(r, 1)
		wo := tensor.New(d, hid).Randn(r, 1)
		y, eps := tensor.New(rows, hid), tensor.New(rows, d)
		lb.add(fmt.Sprintf("gemm_r%d", rows), "tensor", fmt.Sprintf("3 x MatMulABTInto r%d", rows), func(int) {
			tensor.MatMulABTInto(y, x, wx)    // x projection
			tensor.MatMulABTInto(y, x, wc)    // control projection
			tensor.MatMulABTInto(eps, hv, wo) // output projection
		})
	}
	// FLOPs of the three products at 64 rows, from their shapes.
	lb.us["gemm_flops_r64"] = 2 * float64(offlineFlows) * float64(3*d*hid)
}

// cacheOps times the cluster cache's own operations in bulk: they are
// tens of nanoseconds, below what one timed call resolves.
func (lb *layerBench) cacheOps() {
	cache := cluster.NewCache(0, 0)
	body := make([]byte, 2300)
	const entries = 2000
	key := func(i int) cluster.CacheKey {
		return cluster.CacheKey{Digest: "bench", Class: "amazon", Count: 1, Seed: uint64(i), DDIMSteps: lb.m.ServeSteps, Precision: "fp32", Format: "pcap"}
	}
	t0 := time.Now()
	for i := 0; i < entries; i++ {
		cache.Put(key(i), &cluster.CachedResponse{Body: body})
	}
	lb.put("cluster.cache_put_ns", float64(time.Since(t0).Nanoseconds())/entries)
	found := 0
	t0 = time.Now()
	for i := 0; i < entries; i++ {
		if _, ok := cache.Get(key(i)); ok {
			found++
		}
	}
	lb.put("cluster.cache_get_ns", float64(time.Since(t0).Nanoseconds())/entries)
	if found != entries {
		lb.errs.note(fmt.Errorf("cache holds %d of %d keys", found, entries))
	}
}

// derive turns the probes' medians into the per-layer metrics.
func (lb *layerBench) derive() {
	us := lb.us
	for _, rows := range batchRows {
		lb.put(fmt.Sprintf("tensor.gemm_us_r%d", rows), us[fmt.Sprintf("gemm_r%d", rows)])
		lb.put(fmt.Sprintf("denoiser.forward_us_r%d", rows), us[fmt.Sprintf("forward_r%d", rows)])
		lb.put(fmt.Sprintf("scheduler.step_us_r%d", rows), us[fmt.Sprintf("step_r%d", rows)])
	}
	if us["gemm_r64"] > 0 {
		lb.put("tensor.gemm_gflops_r64", us["gemm_flops_r64"]/(us["gemm_r64"]*1e-6)/1e9)
	}
	if us["forward_r8"] > 0 {
		lb.put("denoiser.nongemm_share_r8", (us["forward_r8"]-us["gemm_r8"])/us["forward_r8"])
	}
	lb.put("scheduler.self_us_per_row", us["step_self_r8"]/8)
	lb.put("scheduler.admit_us_per_flow", us["admit_r1"])
	lb.put("postprocess.us_per_flow", us["post_n1"])
	lb.put("encode.pcap_us_per_flow", us["encode_pcap"])
	lb.put("encode.csv_us_per_flow", us["encode_csv"])
	lb.put("core.generate_ms_n1", us["core_n1"]/1000)
	lb.put("core.generate_ms_n64", us["core_n64"]/1000)
	lb.put("core.unattributed_ms_n1", (us["core_n1"]-us["sched_pass_r1"]-us["post_n1"])/1000)
	lb.put("engine.overhead_ms_n1", (us["engine"]-us["core_n1"])/1000)
	lb.put("serve.handler_overhead_ms", (us["handler"]-us["engine"]-us["encode_pcap"])/1000)
	lb.put("serve.http_overhead_ms", (us["serve"]-us["handler"])/1000)
	lb.put("cluster.proxy_overhead_ms", (us["cluster"]-us["serve"])/1000)
}

// table builds the layer table for the workload's unit of work: one
// 64-flow call on offline_bulk, one 1-flow pcap request elsewhere
// (through the router on router_repeat). Each row is the layer's own
// time; rows sum to the measured uncontended end-to-end latency.
//
// The nesting follows the calls. Offline, the Synthesizer call encloses
// the scheduler's work and postprocess, and what is left of it is
// core.unattributed. Served, the engine drives the scheduler and
// postprocess itself — the Synthesizer call is not on the path — so the
// engine row is what is left of Engine.Generate and core.unattributed
// is empty.
func (lb *layerBench) table(p *plan) ([]tableRow, string) {
	us := lb.us
	n, steps, rows, postKey := 1, lb.m.ServeSteps, "_r1", "post_n1"
	if p.kind == stackOffline {
		n, steps, rows, postKey = offlineFlows, lb.m.OfflineSteps, "_r64", "post_n64"
	}
	forwards := float64(2 * steps) // guided: a conditional and an unconditional forward per step
	totals := []layerTotal{
		{Layer: "tensor", Us: forwards * us["gemm"+rows]},
		{Layer: "denoiser", Us: us["forward_pass"+rows], Inner: []string{"tensor"}},
		{Layer: "scheduler", Us: us["sched_pass"+rows], Inner: []string{"denoiser"}},
		{Layer: "postprocess", Us: us[postKey]},
	}
	unattributed := layerTotal{Layer: "core.unattributed"}
	engine, serve, router := layerTotal{Layer: "engine"}, layerTotal{Layer: "serve"}, layerTotal{Layer: "cluster"}
	note := fmt.Sprintf("one %d-flow Synthesizer call at %d steps plus its pcap encode, uncontended", n, steps)
	if p.kind == stackOffline {
		unattributed.Us, unattributed.Inner = us["core_n64"], []string{"scheduler", "postprocess"}
	} else {
		engine.Us, engine.Inner = us["engine"], []string{"scheduler", "postprocess"}
		serve.Us, serve.Inner = us["serve"], []string{"engine", "encode"}
		note = fmt.Sprintf("one 1-flow pcap request at %d steps over TCP to traced, uncontended", steps)
	}
	if p.kind == stackRouter {
		router.Us, router.Inner = us["cluster"], []string{"serve"}
		note = fmt.Sprintf("one 1-flow pcap cache miss at %d steps over TCP through tracerouter, uncontended", steps)
	}
	totals = append(totals, unattributed, layerTotal{Layer: "encode", Us: float64(n) * us["encode_pcap"]}, engine, serve, router)
	return layerTable(totals), note
}
