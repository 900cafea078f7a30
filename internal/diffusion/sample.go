package diffusion

import (
	"fmt"
	"runtime"
	"sync"

	"trafficdiff/internal/nn"
	"trafficdiff/internal/stats"
	"trafficdiff/internal/tensor"
)

// SampleConfig controls reverse-process sampling.
type SampleConfig struct {
	// Class conditions generation ("the prompt"). Must be < NullClass.
	Class int
	// N is the number of images to draw in one batch.
	N int
	// GuidanceScale w applies classifier-free guidance:
	// ε = ε_uncond + w·(ε_cond − ε_uncond). w=1 is pure conditional;
	// w=0 unconditional; w>1 sharpens class adherence.
	GuidanceScale float64
	// DDIMSteps, when > 0, uses the deterministic DDIM sampler with
	// that many evenly spaced steps instead of full ancestral DDPM
	// sampling (the paper's "generative speed" lever).
	DDIMSteps int
	// Control, when non-nil, is the ControlNet conditioning image
	// [1,H,W] shared by every flow in the batch.
	Control *tensor.Tensor
	Seed    uint64
	// FlowSeeds, when non-empty, must have length N and gives every
	// flow its own independent RNG root, making each flow's output a
	// pure function of its seed alone — independent of batch
	// composition. This is the property that lets a serving layer
	// coalesce concurrent requests into one batch while keeping
	// seeded requests bit-identical across replicas. When empty, all
	// streams derive from Seed by sequential Split (the batch-level
	// layout used by training-time experiments).
	FlowSeeds []uint64
}

// ForwardFunc matches Denoiser.Forward and lets callers wrap the model
// (LoRA, ablations) without re-implementing the samplers.
type ForwardFunc func(tp *nn.Tape, xt *nn.V, steps []int, class []int, control *tensor.Tensor) *nn.V

// Sample draws cfg.N images [N,1,H,W] from the model under sched.
//
// The whole batch is admitted to a step Scheduler and stepped until
// every flow completes: each timestep runs ONE batched evaluation over
// all N flows (the shared-trunk split forward), so the denoiser sees
// [N,·] tensors big enough for the parallel kernel layer instead of N
// batch-1 calls below its work threshold. The DDPM/DDIM
// update is then applied per flow from that flow's private RNG stream.
// Callers that need mid-generation admission and retirement drive a
// Scheduler directly (the serving engine does).
//
// Determinism: every kernel computes each output row with an
// accumulation order independent of the batch's row count, so the
// batched forward's row i is bit-identical to a batch-1 forward of
// flow i, and each flow's noise draws come only from its own stream —
// the output equals SampleLegacy's exactly (enforced by
// TestBatchedMatchesLegacy) and, with FlowSeeds, stays a pure
// function of each flow's seed regardless of batch composition or
// GOMAXPROCS.
func Sample(model Denoiser, sched *Schedule, cfg SampleConfig) (*tensor.Tensor, error) {
	if err := validateSample(model, cfg); err != nil {
		return nil, err
	}
	h, w := model.Shape()
	n, d := cfg.N, h*w
	rngs := flowStreams(cfg)

	// A nil forward: the scheduler takes the split path (see
	// NewScheduler).
	eng := NewScheduler(model, sched, nil)
	eng.growTo(n) // the batch size is known: size the row buffers once
	out := tensor.New(n, 1, h, w)
	for i, r := range rngs {
		if _, err := eng.Admit(FlowSpec{
			Class:         cfg.Class,
			GuidanceScale: cfg.GuidanceScale,
			DDIMSteps:     cfg.DDIMSteps,
			RNG:           r,
			Control:       cfg.Control,
			Out:           out.Data[i*d : (i+1)*d],
		}); err != nil {
			return nil, err
		}
	}
	for eng.Active() > 0 {
		eng.Step()
	}
	return out, nil
}

// SampleLegacy draws cfg.N images with the pre-batching orchestration:
// flow-parallel, step-serial, one goroutine-pool task per flow running
// batch-1 plain forwards (two per guided step, control projected in
// each). It is retained as the reference implementation for the
// batched path's bit-identity property test and as a fallback for
// callers that want per-flow latency over batch throughput. Each
// worker's tensor ops run under tensor.Serial: the pool already owns
// the CPUs, and intra-kernel sharding on top of it only adds dispatch
// overhead and contention.
func SampleLegacy(model Denoiser, sched *Schedule, cfg SampleConfig) (*tensor.Tensor, error) {
	if err := validateSample(model, cfg); err != nil {
		return nil, err
	}
	h, w := model.Shape()
	n, d := cfg.N, h*w
	nullClass := model.NullClass()
	rngs := flowStreams(cfg)

	// Control is read-only during sampling and shared by all workers.
	var control *tensor.Tensor
	if cfg.Control != nil {
		control = cfg.Control.Reshape(1, 1, h, w)
	}

	out := tensor.New(n, 1, h, w)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			tensor.Serial(func() {
				x := sampleOne(model.Forward, nullClass, sched, cfg, h, w, rngs[i], control)
				copy(out.Data[i*d:(i+1)*d], x.Data)
			})
		}(i)
	}
	wg.Wait()
	return out, nil
}

// validateSample checks cfg against the model.
func validateSample(model Denoiser, cfg SampleConfig) error {
	if cfg.N <= 0 {
		return fmt.Errorf("diffusion: sample N must be positive")
	}
	if len(cfg.FlowSeeds) != 0 && len(cfg.FlowSeeds) != cfg.N {
		return fmt.Errorf("diffusion: %d flow seeds for N=%d", len(cfg.FlowSeeds), cfg.N)
	}
	if cfg.Class < 0 || cfg.Class >= model.NullClass() {
		return fmt.Errorf("diffusion: class %d out of range [0,%d)", cfg.Class, model.NullClass())
	}
	return nil
}

// flowStreams builds one private RNG stream per flow. With FlowSeeds
// each stream roots at its own seed; otherwise streams split off
// sequentially from the batch seed (same discipline as rf.Train).
// Either way the draw sequence per flow is fixed up front, so output
// is bit-identical at any GOMAXPROCS and, with FlowSeeds, independent
// of batch composition.
func flowStreams(cfg SampleConfig) []*stats.RNG {
	rngs := make([]*stats.RNG, cfg.N)
	if len(cfg.FlowSeeds) != 0 {
		for i := range rngs {
			rngs[i] = stats.NewRNG(cfg.FlowSeeds[i])
		}
	} else {
		root := stats.NewRNG(cfg.Seed)
		for i := range rngs {
			rngs[i] = root.Split()
		}
	}
	return rngs
}

// predictor runs classifier-free-guided ε predictions for a fixed
// batch shape. The tape (reuse-enabled, no-grad), the step/class index
// slices and the guidance-combination buffer all persist across calls,
// so the per-timestep steady state allocates no new float32 storage.
// The guidance comparison is evaluated once here, not per step (it
// previously ran through stats.ApproxEqual on every predictOne call).
type predictor struct {
	forward ForwardFunc
	tp      *nn.Tape
	control *tensor.Tensor
	steps   []int
	classC  []int
	classU  []int
	guided  bool
	wg      float32
	eps     *tensor.Tensor // combined guidance output [n,1,h,w]
}

func newPredictor(forward ForwardFunc, nullClass, n, class int, guidance float64, control *tensor.Tensor, h, w int) *predictor {
	p := &predictor{
		forward: forward,
		tp:      nn.NewTape(),
		control: control,
		steps:   make([]int, n),
		classC:  make([]int, n),
		classU:  make([]int, n),
	}
	p.tp.EnableReuse()
	p.tp.SetNoGrad(true)
	for i := 0; i < n; i++ {
		p.classC[i] = class
		p.classU[i] = nullClass
	}
	p.guided = !stats.ApproxEqual(guidance, 1, 1e-9)
	if p.guided {
		p.wg = float32(guidance)
		p.eps = tensor.New(n, 1, h, w)
	}
	return p
}

// predict returns ε for x at timestep t. The returned tensor is owned
// by the predictor and valid only until endStep.
//
//tracelint:hotpath
func (p *predictor) predict(x *tensor.Tensor, t int) *tensor.Tensor {
	for i := range p.steps {
		p.steps[i] = t
	}
	tp := p.tp
	epsC := p.forward(tp, tp.Input(x), p.steps, p.classC, p.control)
	out := epsC.X
	if p.guided {
		epsU := p.forward(tp, tp.Input(x), p.steps, p.classU, p.control)
		wg := p.wg
		for i := range p.eps.Data {
			p.eps.Data[i] = epsU.X.Data[i] + wg*(epsC.X.Data[i]-epsU.X.Data[i])
		}
		out = p.eps
	}
	tp.Reset()
	return out
}

// endStep returns the step's tape storage to the arena. Call after the
// ε from predict has been fully consumed.
func (p *predictor) endStep() { p.tp.Recycle() }

// sampleOne draws a single flow image [1,1,H,W] from its private RNG
// stream (the legacy per-flow path).
func sampleOne(forward ForwardFunc, nullClass int, sched *Schedule, cfg SampleConfig, h, w int, r *stats.RNG, control *tensor.Tensor) *tensor.Tensor {
	p := newPredictor(forward, nullClass, 1, cfg.Class, cfg.GuidanceScale, control, h, w)
	// x_T ~ N(0, I).
	x := tensor.New(1, 1, h, w).Randn(r, 1)
	if cfg.DDIMSteps > 0 && cfg.DDIMSteps < sched.T {
		return sampleDDIM(x, sched, cfg.DDIMSteps, p)
	}
	return sampleDDPM(x, sched, r, p)
}

// ddpmUpdate applies one reverse DDPM step (with x0 clipping) to one
// flow's elements from its private stream, reading the precomputed
// coefficient tables. The predicted x₀ is clipped to the data range
// before computing the posterior mean ("clip_denoised"), which keeps
// an imperfect denoiser from diverging over many steps.
//
//tracelint:hotpath
func ddpmUpdate(xd, ed []float32, sched *Schedule, t int, r *stats.RNG) {
	sqrtAB := sched.SqrtAlphaBar[t]
	sqrt1AB := sched.SqrtOneMinusAlphaBar[t]
	coefX0 := sched.PosteriorCoefX0[t]
	coefXt := sched.PosteriorCoefXt[t]
	sigma := sched.PosteriorSigma[t]
	for j := range xd {
		x0 := (float64(xd[j]) - sqrt1AB*float64(ed[j])) / sqrtAB
		if x0 > 1.5 {
			x0 = 1.5
		}
		if x0 < -1.5 {
			x0 = -1.5
		}
		mean := coefX0*x0 + coefXt*float64(xd[j])
		if t > 0 {
			mean += sigma * r.NormFloat64()
		}
		xd[j] = float32(mean)
	}
}

// ddimUpdate applies one deterministic DDIM step (with x0 clipping) to
// the elements of xd.
//
//tracelint:hotpath
func ddimUpdate(xd, ed []float32, c DDIMCoeff) {
	for j := range xd {
		x0 := (float64(xd[j]) - c.Sqrt1AB*float64(ed[j])) / c.SqrtAB
		// Clip x0 to the data range to stabilize few-step sampling.
		if x0 > 1.5 {
			x0 = 1.5
		}
		if x0 < -1.5 {
			x0 = -1.5
		}
		xd[j] = float32(c.SqrtABPrev*x0 + c.Sqrt1ABPrev*float64(ed[j]))
	}
}

// sampleDDPM runs full ancestral sampling for one flow: T model
// evaluations.
func sampleDDPM(x *tensor.Tensor, sched *Schedule, r *stats.RNG, p *predictor) *tensor.Tensor {
	for t := sched.T - 1; t >= 0; t-- {
		stepDDPMInPlace(x, sched, t, r, p)
	}
	return x
}

// sampleDDIM runs deterministic DDIM over an evenly spaced subsequence
// of steps — the standard inference-speed optimization for diffusion
// models (paper §4 "generative speed"). The update coefficients are
// shared by every flow and DDIM draws no noise, so the same sweep
// serves a one-flow x and a whole batch.
//
//tracelint:hotpath
func sampleDDIM(x *tensor.Tensor, sched *Schedule, steps int, p *predictor) *tensor.Tensor {
	seq, coef := sched.DDIMTable(steps)
	for i := len(seq) - 1; i >= 0; i-- {
		eps := p.predict(x, seq[i])
		ddimUpdate(x.Data, eps.Data, coef[i])
		p.endStep()
	}
	return x
}

// ddimSequence returns an increasing subsequence of [0, T) with the
// requested length, always including step T-1.
func ddimSequence(T, steps int) []int {
	if steps >= T {
		//tracelint:allow hotalloc — runs once per step count; DDIMTable memoizes the plan
		seq := make([]int, T)
		for i := range seq {
			seq[i] = i
		}
		return seq
	}
	//tracelint:allow hotalloc — runs once per step count; DDIMTable memoizes the plan
	seq := make([]int, steps)
	for i := 0; i < steps; i++ {
		seq[i] = i * T / steps
	}
	seq[steps-1] = T - 1
	return seq
}

// ForwardNoise applies the closed-form forward process q(x_t | x_0) to
// an image, returning √ᾱ_t·x₀ + √(1−ᾱ_t)·ε for fresh noise ε. Exposed
// for tests and diagnostics.
func ForwardNoise(sched *Schedule, x0 *tensor.Tensor, t int, r *stats.RNG) *tensor.Tensor {
	out := tensor.New(x0.Shape...)
	sa := sched.SqrtAlphaBar[t]
	sn := sched.SqrtOneMinusAlphaBar[t]
	for i, v := range x0.Data {
		out.Data[i] = float32(sa*float64(v) + sn*r.NormFloat64())
	}
	return out
}
