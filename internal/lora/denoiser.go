package lora

import (
	"trafficdiff/internal/diffusion"
	"trafficdiff/internal/nn"
	"trafficdiff/internal/stats"
	"trafficdiff/internal/tensor"
)

// AdaptedMLP wraps a diffusion.MLPDenoiser with LoRA adapters on its
// projection layers plus a fresh class-embedding table, reproducing
// the paper's "add-on model fine-tuned for extended coverage": the
// base denoiser stays frozen while the adapters and the new word
// embeddings learn the traffic classes.
type AdaptedMLP struct {
	Base *diffusion.MLPDenoiser

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
	return &AdaptedMLP{
		Base:     base,
		XProj:    NewAdapter(r, d, base.Hidden, rank, alpha),
		Hid:      NewAdapter(r, base.Hidden, base.Hidden, rank, alpha),
		Out:      NewAdapter(r, base.Hidden, d, rank, alpha),
		ClassEmb: nn.NewEmbedding(r, k+1, base.Hidden),
	}
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

// NullClass implements diffusion.Denoiser.
func (a *AdaptedMLP) NullClass() int { return a.ClassEmb.Table.X.Shape[0] - 1 }

// Shape implements diffusion.Denoiser.
func (a *AdaptedMLP) Shape() (int, int) { return a.Base.Shape() }

// Forward implements diffusion.Denoiser: the base MLP's architecture
// with adapter deltas on each projection and the new class table,
// composed as head∘trunk (see diffusion.Denoiser).
func (a *AdaptedMLP) Forward(tp *nn.Tape, xt *nn.V, steps []int, class []int, control *tensor.Tensor) *nn.V {
	return diffusion.ForwardSplit(a, tp, xt, steps, class, control)
}

// ControlFeatures implements diffusion.Denoiser: the frozen base
// ControlNet hook, which carries no adapter.
func (a *AdaptedMLP) ControlFeatures(tp *nn.Tape, control *tensor.Tensor) *nn.V {
	return a.Base.ControlFeatures(tp, control)
}

// Trunk implements diffusion.Denoiser: the adapted x projection
// plus the frozen time projection, and the base model's time-gated
// input skip (frozen gate). One sinusoidal embedding feeds both.
//
//tracelint:hotpath
func (a *AdaptedMLP) Trunk(tp *nn.Tape, xt *nn.V, steps []int) (h, skip *nn.V) {
	bh, bw := a.Base.Shape()
	x2 := tp.Reshape(xt, xt.X.Shape[0], bh*bw)
	tfeat := tp.TimeEmbed(steps, diffusion.TimeEmbedDim())
	h = tp.Add(a.XProj.Apply(tp, a.Base.XProjLayer(), x2), a.Base.TimeProjLayer().Apply(tp, tfeat))
	skip = tp.MulScalarBroadcast(x2, a.Base.GateLayer().Apply(tp, tfeat))
	return h, skip
}

// Head implements diffusion.Denoiser.
//
//tracelint:hotpath
func (a *AdaptedMLP) Head(tp *nn.Tape, h, skip *nn.V, class []int, ctrl *nn.V) *nn.V {
	h = tp.AddRepeat(a.ClassEmb.Apply(tp, class), h)
	if ctrl != nil {
		h = tp.AddRepeat(h, ctrl)
	}
	h = tp.SiLU(a.Base.Norm1Layer().Apply(tp, h))
	h2 := tp.SiLU(a.Base.Norm2Layer().Apply(tp, a.Hid.Apply(tp, a.Base.HidLayer(), h)))
	h = tp.Add(h, h2)
	eps := tp.AddRepeat(a.Out.Apply(tp, a.Base.OutLayer(), h), skip)
	bh, bw := a.Base.Shape()
	return tp.Reshape(eps, eps.X.Shape[0], 1, bh, bw)
}
