package diffusion

import (
	"trafficdiff/internal/nn"
	"trafficdiff/internal/stats"
	"trafficdiff/internal/tensor"
)

// ForwardFunc matches Denoiser.Forward and lets callers wrap the model
// (LoRA, ablations) without re-implementing the samplers.
type ForwardFunc func(tp *nn.Tape, xt *nn.V, steps []int, class []int, control *tensor.Tensor) *nn.V

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
