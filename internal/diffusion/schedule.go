// Package diffusion implements denoising diffusion probabilistic
// models (DDPM) from scratch: forward noising, an ε-prediction MLP
// denoiser with a time-gated input skip, the training loop, and
// DDPM/DDIM samplers with classifier-free guidance.
//
// This is the pipeline's stand-in for the paper's Stable Diffusion 1.5
// base model: the generative mechanism (iterative Gaussian denoising
// conditioned on a class "prompt" embedding) is the same, scaled to a
// CPU-trainable size and operating directly on resolution-scaled
// nprint images rather than a pretrained latent space.
package diffusion

import (
	"fmt"
	"math"
	"sync"
)

// ScheduleKind selects the β noise schedule.
type ScheduleKind int

// Available schedules.
const (
	// ScheduleLinear is the original DDPM linear β ramp.
	ScheduleLinear ScheduleKind = iota
	// ScheduleCosine is the improved-DDPM cosine ᾱ schedule.
	ScheduleCosine
)

// String names the schedule.
func (k ScheduleKind) String() string {
	switch k {
	case ScheduleLinear:
		return "linear"
	case ScheduleCosine:
		return "cosine"
	default:
		return fmt.Sprintf("ScheduleKind(%d)", int(k))
	}
}

// Schedule holds the precomputed diffusion constants for T steps.
type Schedule struct {
	T        int
	Kind     ScheduleKind
	Beta     []float64 // β_t
	Alpha    []float64 // α_t = 1-β_t
	AlphaBar []float64 // ᾱ_t = Π α_s
	// PosteriorVar is the DDPM reverse-process variance
	// β̃_t = β_t (1-ᾱ_{t-1})/(1-ᾱ_t).
	PosteriorVar []float64

	// Per-step sampler coefficient tables, precomputed so the reverse
	// loops do no math.Sqrt work per step. Each entry is computed with
	// the exact float64 expression the samplers previously evaluated
	// inline, so sampler outputs stay bit-identical.
	SqrtAlphaBar         []float64 // √ᾱ_t
	SqrtOneMinusAlphaBar []float64 // √(1-ᾱ_t)
	PosteriorCoefX0      []float64 // √ᾱ_{t-1}·β_t/(1-ᾱ_t)
	PosteriorCoefXt      []float64 // √α_t·(1-ᾱ_{t-1})/(1-ᾱ_t)
	PosteriorSigma       []float64 // √β̃_t

	// DDIM step plans, memoized per step count. Schedules are shared
	// across concurrently sampling goroutines, hence the lock; the
	// tables above are written once in NewSchedule and read-only after.
	ddimMu    sync.Mutex
	ddimPlans map[int]*ddimPlan
}

// ddimPlan is the precomputed step subsequence and per-step update
// coefficients for a DDIM run with a fixed step count.
type ddimPlan struct {
	seq  []int
	coef []DDIMCoeff
}

// DDIMCoeff holds the four coefficients of one DDIM update
// x ← √ᾱ_prev·x̂₀ + √(1-ᾱ_prev)·ε with x̂₀ = (x - √(1-ᾱ)·ε)/√ᾱ.
type DDIMCoeff struct {
	SqrtAB      float64 // √ᾱ_t
	Sqrt1AB     float64 // √(1-ᾱ_t)
	SqrtABPrev  float64 // √ᾱ_prev (1 for the final step)
	Sqrt1ABPrev float64 // √(1-ᾱ_prev)
}

// DDIMTable returns the step subsequence ddimSequence(T, steps)
// produces plus the update coefficients for each position, computing
// and memoizing them on first use. Callers must not mutate the
// returned slices.
func (s *Schedule) DDIMTable(steps int) ([]int, []DDIMCoeff) {
	s.ddimMu.Lock()
	defer s.ddimMu.Unlock()
	if s.ddimPlans == nil {
		//tracelint:allow hotalloc — first DDIMTable call only
		s.ddimPlans = make(map[int]*ddimPlan)
	}
	if p, ok := s.ddimPlans[steps]; ok {
		return p.seq, p.coef
	}
	seq := ddimSequence(s.T, steps)
	//tracelint:allow hotalloc — first use of this step count only; memoized below
	coef := make([]DDIMCoeff, len(seq))
	for i, t := range seq {
		ab := s.AlphaBar[t]
		abPrev := 1.0
		if i > 0 {
			abPrev = s.AlphaBar[seq[i-1]]
		}
		//tracelint:allow hotalloc — value assignment into the memoized table, not a heap site per step
		coef[i] = DDIMCoeff{
			SqrtAB:      math.Sqrt(ab),
			Sqrt1AB:     math.Sqrt(1 - ab),
			SqrtABPrev:  math.Sqrt(abPrev),
			Sqrt1ABPrev: math.Sqrt(1 - abPrev),
		}
	}
	//tracelint:allow hotalloc — first use of this step count only; later calls return the memo
	s.ddimPlans[steps] = &ddimPlan{seq: seq, coef: coef}
	return seq, coef
}

// NewSchedule precomputes a schedule with T steps.
func NewSchedule(kind ScheduleKind, T int) *Schedule {
	if T < 1 {
		//tracelint:allow paniccheck — constructor invariant; T comes from validated config
		panic("diffusion: schedule needs T >= 1")
	}
	s := &Schedule{
		T: T, Kind: kind,
		Beta:         make([]float64, T),
		Alpha:        make([]float64, T),
		AlphaBar:     make([]float64, T),
		PosteriorVar: make([]float64, T),

		SqrtAlphaBar:         make([]float64, T),
		SqrtOneMinusAlphaBar: make([]float64, T),
		PosteriorCoefX0:      make([]float64, T),
		PosteriorCoefXt:      make([]float64, T),
		PosteriorSigma:       make([]float64, T),
	}
	switch kind {
	case ScheduleLinear:
		// DDPM defaults (β from 1e-4 to 0.02) are tuned for T=1000;
		// rescale by 1000/T so the total noise injected — and hence
		// ᾱ_T ≈ 0 — is preserved for smaller T.
		scale := 1000.0 / float64(T)
		lo, hi := float64(1e-4*scale), float64(0.02*scale)
		for t := 0; t < T; t++ {
			frac := 0.0
			if T > 1 {
				frac = float64(t) / float64(T-1)
			}
			b := lo + float64((hi-lo)*frac)
			if b > 0.999 {
				b = 0.999
			}
			s.Beta[t] = b
		}
	case ScheduleCosine:
		// Nichol & Dhariwal: ᾱ_t = f(t)/f(0), f(t)=cos²((t/T+s)/(1+s)·π/2).
		const off = 0.008
		f := func(t float64) float64 {
			v := math.Cos((t/float64(T) + off) / (1 + off) * math.Pi / 2)
			return v * v
		}
		f0 := f(0)
		prev := 1.0
		for t := 0; t < T; t++ {
			ab := f(float64(t+1)) / f0
			beta := 1 - ab/prev
			if beta > 0.999 {
				beta = 0.999
			}
			if beta < 1e-8 {
				beta = 1e-8
			}
			s.Beta[t] = beta
			prev = ab
		}
	default:
		//tracelint:allow paniccheck — exhaustive switch over the package's own ScheduleKind constants
		panic("diffusion: unknown schedule kind")
	}
	abar := 1.0
	for t := 0; t < T; t++ {
		s.Alpha[t] = 1 - s.Beta[t]
		abar = float64(abar * s.Alpha[t])
		s.AlphaBar[t] = abar
		prevBar := 1.0
		if t > 0 {
			prevBar = s.AlphaBar[t-1]
		}
		s.PosteriorVar[t] = s.Beta[t] * (1 - prevBar) / (1 - abar)
	}
	for t := 0; t < T; t++ {
		ab := s.AlphaBar[t]
		abPrev := 1.0
		if t > 0 {
			abPrev = s.AlphaBar[t-1]
		}
		s.SqrtAlphaBar[t] = math.Sqrt(ab)
		s.SqrtOneMinusAlphaBar[t] = math.Sqrt(1 - ab)
		s.PosteriorCoefX0[t] = math.Sqrt(abPrev) * s.Beta[t] / (1 - ab)
		s.PosteriorCoefXt[t] = math.Sqrt(s.Alpha[t]) * (1 - abPrev) / (1 - ab)
		s.PosteriorSigma[t] = math.Sqrt(s.PosteriorVar[t])
	}
	return s
}

// SNR returns the signal-to-noise ratio ᾱ_t/(1-ᾱ_t) at step t.
func (s *Schedule) SNR(t int) float64 {
	return s.AlphaBar[t] / (1 - s.AlphaBar[t])
}
