package lora

import (
	"trafficdiff/internal/diffusion"
	"trafficdiff/internal/nn"
	"trafficdiff/internal/stats"
)

// AdaptedMLP is a diffusion.MLPDenoiser with LoRA adapters on its x,
// hidden and output projections plus a fresh class-embedding table,
// reproducing the paper's "add-on model fine-tuned for extended
// coverage": the base denoiser stays frozen while the adapters and the
// new word embeddings learn the traffic classes. Its forward is the
// base model's, run through the view MLPDenoiser.Adapted returns.
type AdaptedMLP struct {
	*diffusion.MLPDenoiser // the base with the adapters attached

	XProj *Adapter
	Hid   *Adapter
	Out   *Adapter
	// ClassEmb replaces the base class table so new classes can be
	// introduced without touching base weights.
	ClassEmb *nn.EmbeddingLayer
}

// NewAdaptedMLP attaches rank-r adapters to base. k is the number of
// classes the fine-tuned model must cover (its table gets k+1 rows). A
// nil r builds the skeleton with zero weights for a checkpoint loader.
func NewAdaptedMLP(r *stats.RNG, base *diffusion.MLPDenoiser, rank int, alpha float64, k int) *AdaptedMLP {
	d := base.H * base.W
	a := &AdaptedMLP{
		XProj:    NewAdapter(r, d, base.Hidden, rank, alpha),
		Hid:      NewAdapter(r, base.Hidden, base.Hidden, rank, alpha),
		Out:      NewAdapter(r, base.Hidden, d, rank, alpha),
		ClassEmb: nn.NewEmbedding(r, k+1, base.Hidden),
	}
	a.MLPDenoiser = base.Adapted(a.XProj, a.Hid, a.Out, a.ClassEmb)
	return a
}

// Params returns only the adapter and embedding parameters — the
// trainable set during fine-tuning (pass as TrainConfig.Params; the
// base's own parameters stay frozen).
func (a *AdaptedMLP) Params() []*nn.V {
	var ps []*nn.V
	ps = append(ps, a.XProj.Params()...)
	ps = append(ps, a.Hid.Params()...)
	ps = append(ps, a.Out.Params()...)
	ps = append(ps, a.ClassEmb.Params()...)
	return ps
}
