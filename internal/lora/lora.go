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

// NewAdapter creates a rank-r adapter for a layer with the given fan-in
// and fan-out. B starts at zero so the adapter is initially a no-op. A
// nil r leaves A zero too, for a caller about to load the weights.
func NewAdapter(r *stats.RNG, in, out, rank int, alpha float64) *Adapter {
	if rank <= 0 || rank > in || rank > out {
		//tracelint:allow paniccheck — shape invariant on adapter construction, same class as tensor kernel checks
		panic(fmt.Sprintf("lora: rank %d out of range for %dx%d layer", rank, in, out))
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

// Merge folds the adapter into the base layer's weights in place
// (W ← W + (α/r)·B·A) so inference no longer needs the adapter. The
// standard deployment step once fine-tuning is done.
func (ad *Adapter) Merge(l *nn.LinearLayer) {
	out, in := l.W.X.Shape[0], l.W.X.Shape[1]
	r := ad.Rank
	scale := float32(ad.Alpha / float64(r))
	for o := 0; o < out; o++ {
		for i := 0; i < in; i++ {
			var sum float32
			for k := 0; k < r; k++ {
				sum += ad.B.X.Data[o*r+k] * ad.A.X.Data[k*in+i]
			}
			l.W.X.Data[o*in+i] += scale * sum
		}
	}
}
