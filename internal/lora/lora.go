// Package lora implements Low-Rank Adaptation (Hu et al. 2021) for the
// nn layers used by the diffusion denoiser.
//
// The paper fine-tunes its base diffusion model with LoRA so new
// traffic classes can be added by training only small low-rank deltas
// plus a new "word" (class) embedding, leaving the base weights
// frozen. An adapter replaces y = x·Wᵀ + b with
//
//	y = x·Wᵀ + b + (α/r)·(x·Aᵀ)·Bᵀ
//
// where A is [r, in] (Gaussian-initialized) and B is [out, r]
// (zero-initialized), so the adapted model starts exactly equal to the
// base model.
package lora

import (
	"fmt"
	"math"

	"trafficdiff/internal/nn"
	"trafficdiff/internal/stats"
)

// Adapter is a LoRA delta attached to one linear layer.
type Adapter struct {
	A, B  *nn.V // A [r,in], B [out,r]
	Rank  int
	Alpha float64
}

// CheckRank reports whether a rank-r adapter fits a layer with the
// given fan-in and fan-out: the rank must lie in [1, min(in, out)].
func CheckRank(rank, in, out int) error {
	if rank <= 0 || rank > in || rank > out {
		return fmt.Errorf("lora: rank %d out of range for %dx%d layer", rank, in, out)
	}
	return nil
}

// NewAdapter creates a rank-r adapter for a layer with the given fan-in
// and fan-out. B starts at zero so the adapter is initially a no-op. A
// nil r leaves A zero too, for a caller about to load the weights. A
// rank CheckRank refuses panics; callers validate it first.
func NewAdapter(r *stats.RNG, in, out, rank int, alpha float64) *Adapter {
	if err := CheckRank(rank, in, out); err != nil {
		//tracelint:allow paniccheck — shape invariant on adapter construction, same class as tensor kernel checks
		panic(err.Error())
	}
	ad := &Adapter{A: nn.Param(rank, in), B: nn.Param(out, rank), Rank: rank, Alpha: alpha}
	if r != nil {
		ad.A.X.Randn(r, 1/math.Sqrt(float64(in)))
	}
	return ad
}

// Params returns the adapter's trainable parameters.
func (ad *Adapter) Params() []*nn.V { return []*nn.V{ad.A, ad.B} }

// Apply computes the adapted output for base layer l on x [N,in]:
// base(x) + (α/r)·(x·Aᵀ)·Bᵀ. The low-rank projections carry no bias.
//
//tracelint:hotpath
func (ad *Adapter) Apply(tp *nn.Tape, l *nn.LinearLayer, x *nn.V) *nn.V {
	base := l.Apply(tp, x)
	down := tp.Linear(x, ad.A, nil)  // [N, r]
	up := tp.Linear(down, ad.B, nil) // [N, out]
	return tp.AddScaled(base, up, float32(ad.Alpha/float64(ad.Rank)))
}
