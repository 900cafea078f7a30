package diffusion

import (
	"fmt"

	"trafficdiff/internal/nn"
	"trafficdiff/internal/stats"
	"trafficdiff/internal/tensor"
)

// SampleConfig controls reverse-process sampling.
type SampleConfig struct {
	// Class conditions generation ("the prompt"). Must be < NullClass.
	Class int
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
	// FlowSeeds gives every flow its own RNG root, one image per seed,
	// making each flow's output a pure function of its seed alone —
	// independent of batch composition. This is the property that lets
	// a serving layer coalesce concurrent requests into one batch while
	// keeping seeded requests bit-identical across replicas.
	FlowSeeds []uint64
}

// ForwardFunc matches Denoiser.Forward and lets callers wrap the model
// (LoRA, ablations) without re-implementing the samplers.
type ForwardFunc func(tp *nn.Tape, xt *nn.V, steps []int, class []int, control *tensor.Tensor) *nn.V

// Sample draws one image per flow seed, [len(FlowSeeds),1,H,W], from
// the model under sched.
//
// The whole batch is admitted to a step Scheduler and stepped until
// every flow completes: each timestep runs ONE batched evaluation over
// all flows (the shared-trunk split forward), one tensor row per flow,
// so the denoiser's shapes are big enough for the parallel kernel layer
// instead of batch-1 calls below its work threshold. The DDPM/DDIM
// update is then applied per flow from the stream rooted at its seed.
// Callers that need mid-generation admission, retirement or access to
// x_t drive a Scheduler directly (the serving engine and the edits do).
//
// Determinism: every kernel computes each output row with an
// accumulation order independent of the batch's row count, so the
// batched forward's row i is bit-identical to a batch-1 forward of
// flow i, and each flow's noise draws come only from its own stream —
// the output equals a flow-by-flow batch-1 loop's exactly (enforced by
// TestBatchedMatchesLegacy) and stays a pure function of each flow's
// seed regardless of batch composition or GOMAXPROCS.
func Sample(model Denoiser, sched *Schedule, cfg SampleConfig) (*tensor.Tensor, error) {
	n := len(cfg.FlowSeeds)
	if n == 0 {
		return nil, fmt.Errorf("diffusion: sample needs at least one flow seed")
	}
	h, w := model.Shape()
	d := h * w

	// A nil forward: the scheduler takes the split path (see
	// NewScheduler).
	eng := NewScheduler(model, sched, nil)
	eng.growTo(n) // the batch size is known: size the row buffers once
	out := tensor.New(n, 1, h, w)
	for i, seed := range cfg.FlowSeeds {
		if _, err := eng.Admit(FlowSpec{
			Class:         cfg.Class,
			GuidanceScale: cfg.GuidanceScale,
			DDIMSteps:     cfg.DDIMSteps,
			RNG:           stats.NewRNG(seed),
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
		x0 := (float64(xd[j]) - float64(sqrt1AB*float64(ed[j]))) / sqrtAB
		if x0 > 1.5 {
			x0 = 1.5
		}
		if x0 < -1.5 {
			x0 = -1.5
		}
		mean := float64(coefX0*x0) + float64(coefXt*float64(xd[j]))
		if t > 0 {
			mean += float64(sigma * r.NormFloat64())
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
		x0 := (float64(xd[j]) - float64(c.Sqrt1AB*float64(ed[j]))) / c.SqrtAB
		// Clip x0 to the data range to stabilize few-step sampling.
		if x0 > 1.5 {
			x0 = 1.5
		}
		if x0 < -1.5 {
			x0 = -1.5
		}
		xd[j] = float32(float64(c.SqrtABPrev*x0) + float64(c.Sqrt1ABPrev*float64(ed[j])))
	}
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
// an image, returning √ᾱ_t·x₀ + √(1−ᾱ_t)·ε for fresh noise ε drawn
// from r (Translate's partial noising).
func ForwardNoise(sched *Schedule, x0 *tensor.Tensor, t int, r *stats.RNG) *tensor.Tensor {
	out := tensor.New(x0.Shape...)
	sa := sched.SqrtAlphaBar[t]
	sn := sched.SqrtOneMinusAlphaBar[t]
	for i, v := range x0.Data {
		out.Data[i] = float32(float64(sa*float64(v)) + float64(sn*r.NormFloat64()))
	}
	return out
}
