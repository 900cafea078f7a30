package diffusion

import (
	"fmt"
	"math"

	"trafficdiff/internal/stats"
	"trafficdiff/internal/tensor"
)

// The paper's §4 research agenda sketches downstream tasks a traffic
// foundation model should support. Two of them map directly onto
// standard diffusion editing machinery and are implemented here:
//
//   - "traffic deblurring: restoration of missing header fields or
//     corrupted parts within network traffic" -> Inpaint (RePaint-style
//     masked reverse diffusion);
//   - "traffic-to-traffic translations" -> Translate (SDEdit-style
//     partial noising followed by denoising under a different class
//     prompt).

// InpaintConfig controls masked restoration.
type InpaintConfig struct {
	// Known is the observed image [1,H,W]; values at masked-out
	// positions are ignored.
	Known *tensor.Tensor
	// Mask marks which pixels are known (true = observed, keep).
	// Length must be H*W.
	Mask []bool
	// Class conditions the restoration.
	Class         int
	GuidanceScale float64
	Control       *tensor.Tensor
	Seed          uint64
}

// Inpaint restores the unknown region of a partially observed image by
// reverse diffusion: after every step the known region of x_t is
// replaced with a forward-noised version of the observation, so the
// generated content stays consistent with it (Lugmayr et al.'s RePaint
// scheme, single pass). The flow runs on a private Scheduler; its
// stream draws x_T, then each step's update noise, then its mask noise.
func Inpaint(model Denoiser, sched *Schedule, cfg InpaintConfig) (*tensor.Tensor, error) {
	h, w := model.Shape()
	d := h * w
	if cfg.Known == nil || cfg.Known.Len() != d {
		return nil, fmt.Errorf("diffusion: Known must be [1,%d,%d]", h, w)
	}
	if len(cfg.Mask) != d {
		return nil, fmt.Errorf("diffusion: mask length %d, want %d", len(cfg.Mask), d)
	}
	r := stats.NewRNG(cfg.Seed)
	out := tensor.New(1, h, w)
	eng := NewScheduler(model, sched, nil)
	id, err := eng.Admit(FlowSpec{
		Class: cfg.Class, GuidanceScale: cfg.GuidanceScale,
		RNG: r, Control: cfg.Control, Out: out.Data,
	})
	if err != nil {
		return nil, err
	}
	for t := sched.T - 1; t >= 0; t-- {
		eng.Step()
		// Overwrite the known region with q(x_{t-1} | x_0^known): in the
		// live row, or after the last step in the finished sample.
		x := out.Data
		abPrev := 1.0
		if t > 0 {
			x = eng.Row(id)
			abPrev = sched.AlphaBar[t-1]
		}
		sa := math.Sqrt(abPrev)
		sn := math.Sqrt(1 - abPrev)
		for i := 0; i < d; i++ {
			if cfg.Mask[i] {
				noise := 0.0
				if t > 0 {
					noise = r.NormFloat64()
				}
				x[i] = float32(float64(sa*float64(cfg.Known.Data[i])) + float64(sn*noise))
			}
		}
	}
	return out, nil
}

// TranslateConfig controls traffic-to-traffic translation.
type TranslateConfig struct {
	// Source is the input image [1,H,W].
	Source *tensor.Tensor
	// TargetClass is the prompt to translate toward.
	TargetClass int
	// Strength in (0,1]: the fraction of the noise schedule applied to
	// the source before denoising under the target prompt. Low values
	// preserve more of the source's structure; 1.0 is a fresh sample.
	Strength      float64
	GuidanceScale float64
	Control       *tensor.Tensor
	Seed          uint64
}

// Translate re-renders a source flow image under a different class
// prompt by noising it partway up the schedule and denoising back down
// conditioned on the target class (Meng et al.'s SDEdit applied to
// traffic — the paper's VPN-Netflix/YouTube translation example). The
// denoising runs on a private Scheduler, started at the noised source.
func Translate(model Denoiser, sched *Schedule, cfg TranslateConfig) (*tensor.Tensor, error) {
	h, w := model.Shape()
	if cfg.Source == nil || cfg.Source.Len() != h*w {
		return nil, fmt.Errorf("diffusion: Source must be [1,%d,%d]", h, w)
	}
	if cfg.Strength <= 0 || cfg.Strength > 1 {
		return nil, fmt.Errorf("diffusion: strength %v out of (0,1]", cfg.Strength)
	}
	r := stats.NewRNG(cfg.Seed)
	t0 := max(int(cfg.Strength*float64(sched.T))-1, 0)
	x := ForwardNoise(sched, cfg.Source, t0, r)
	out := tensor.New(1, h, w)
	eng := NewScheduler(model, sched, nil)
	if _, err := eng.Admit(FlowSpec{
		Class: cfg.TargetClass, GuidanceScale: cfg.GuidanceScale,
		RNG: r, Control: cfg.Control, Out: out.Data,
		Start: x.Data, StartT: t0,
	}); err != nil {
		return nil, err
	}
	for eng.Active() > 0 {
		eng.Step()
	}
	return out, nil
}
