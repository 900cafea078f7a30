package diffusion

import (
	"trafficdiff/internal/nn"
	"trafficdiff/internal/stats"
	"trafficdiff/internal/tensor"
)

// Denoiser predicts the noise ε added to a batch of images.
//
// xt is [N,1,H,W]; steps and class give each sample's timestep and
// class id (pass the model's NullClass for unconditional samples —
// classifier-free guidance trains both paths). control, when non-nil,
// is a [N,1,H,W] conditioning image injected through a zero-initialized
// projection (the ControlNet hook).
//
// The forward factors as Forward(x, t, class, control) =
// Head(Trunk(x, t), class, ControlFeatures(control)), where only the
// head sees the class. The two halves of a classifier-free-guided pair
// differ in nothing but the class row, and a flow's control image never
// changes, so a sampler runs the trunk once per step for both halves,
// the head once over the pair's 2n class rows reading the n shared rows
// twice, and the control projection once per flow (Scheduler does, when
// given no forward override). Every method computes each output row
// from the matching input rows alone, so sharing rows changes no row's
// bytes, and Forward is this composition through the same methods
// (ForwardSplit): there is one copy of the arithmetic.
type Denoiser interface {
	Forward(tp *nn.Tape, xt *nn.V, steps []int, class []int, control *tensor.Tensor) *nn.V
	// ControlFeatures projects control images (n·H·W elements, any
	// shape) to the [n, hidden] rows the head adds in.
	ControlFeatures(tp *nn.Tape, control *tensor.Tensor) *nn.V
	// Trunk computes everything that depends only on x_t and the
	// timestep: the pre-class hidden rows h [n, hidden] and the
	// time-gated input skip [n, H·W].
	Trunk(tp *nn.Tape, xt *nn.V, steps []int) (h, skip *nn.V)
	// Head finishes the forward for one class per row. h, skip and
	// ctrl (nil for no control) hold the same n shared rows; class
	// holds n entries or a multiple of n, head row r reading shared row
	// r mod n (a guided pair's 2n rows read each shared row twice, with
	// no copy of it made), and the result is ε [len(class), 1, H, W].
	Head(tp *nn.Tape, h, skip *nn.V, class []int, ctrl *nn.V) *nn.V
	// Params returns the trainable base parameters.
	Params() []*nn.V
	// NullClass is the class id meaning "no prompt".
	NullClass() int
	// Shape returns the image height and width the model expects.
	Shape() (h, w int)
}

// timeEmbedDim is the sinusoidal timestep feature width.
const timeEmbedDim = 64

// MLPDenoiser is a compact fully-connected ε-predictor: fast enough to
// train in seconds on CPU, used by tests and the default pipeline.
type MLPDenoiser struct {
	H, W   int
	Hidden int
	K      int // real classes; table has K+1 rows (null last)

	classEmb *nn.EmbeddingLayer
	timeProj *nn.LinearLayer
	xProj    *nn.LinearLayer
	ctrlProj *nn.LinearLayer // zero-init: ControlNet hook
	norm1    *nn.NormLayer
	hid      *nn.LinearLayer
	norm2    *nn.NormLayer
	out      *nn.LinearLayer
	// gate maps the timestep features to a per-sample scalar that
	// scales a direct x_t -> output skip. ε-prediction has the analytic
	// form ε = x_t/√(1−ᾱ_t) − (√ᾱ_t/√(1−ᾱ_t))·x̂₀; without this skip a
	// narrow MLP would have to squeeze all of x_t through its hidden
	// bottleneck just to reproduce the first term.
	gate *nn.LinearLayer
}

// NewMLPDenoiser builds a denoiser for h x w single-channel images
// with k conditioning classes. A nil r skips the random init and leaves
// every weight zero — the skeleton a checkpoint loader fills.
func NewMLPDenoiser(r *stats.RNG, h, w, hidden, k int) *MLPDenoiser {
	d := h * w
	m := &MLPDenoiser{
		H: h, W: w, Hidden: hidden, K: k,
		classEmb: nn.NewEmbedding(r, k+1, hidden),
		timeProj: nn.NewLinear(r, timeEmbedDim, hidden),
		xProj:    nn.NewLinear(r, d, hidden),
		ctrlProj: nn.NewLinear(r, d, hidden),
		norm1:    nn.NewNorm(hidden),
		hid:      nn.NewLinear(r, hidden, hidden),
		norm2:    nn.NewNorm(hidden),
		out:      nn.NewLinear(r, hidden, d),
		gate:     nn.NewLinear(r, timeEmbedDim, 1),
	}
	// ControlNet-style zero init: the control path starts as a no-op.
	m.ctrlProj.W.X.Zero()
	m.ctrlProj.B.X.Zero()
	// Zero-init the output layer: the model starts by predicting 0
	// noise, which stabilizes early training.
	m.out.W.X.Zero()
	m.out.B.X.Zero()
	return m
}

// NullClass implements Denoiser.
func (m *MLPDenoiser) NullClass() int { return m.K }

// Shape implements Denoiser.
func (m *MLPDenoiser) Shape() (int, int) { return m.H, m.W }

// Params implements Denoiser.
func (m *MLPDenoiser) Params() []*nn.V {
	var ps []*nn.V
	ps = append(ps, m.classEmb.Params()...)
	ps = append(ps, m.timeProj.Params()...)
	ps = append(ps, m.xProj.Params()...)
	ps = append(ps, m.ctrlProj.Params()...)
	ps = append(ps, m.norm1.Params()...)
	ps = append(ps, m.hid.Params()...)
	ps = append(ps, m.norm2.Params()...)
	ps = append(ps, m.out.Params()...)
	ps = append(ps, m.gate.Params()...)
	return ps
}

// Forward implements Denoiser as head∘trunk.
func (m *MLPDenoiser) Forward(tp *nn.Tape, xt *nn.V, steps []int, class []int, control *tensor.Tensor) *nn.V {
	return ForwardSplit(m, tp, xt, steps, class, control)
}

// ForwardSplit is the plain forward of a Denoiser: trunk, control
// projection, head, each over the same rows.
//
//tracelint:hotpath
func ForwardSplit(m Denoiser, tp *nn.Tape, xt *nn.V, steps []int, class []int, control *tensor.Tensor) *nn.V {
	h, skip := m.Trunk(tp, xt, steps)
	var ctrl *nn.V
	if control != nil {
		ctrl = m.ControlFeatures(tp, control)
	}
	return m.Head(tp, h, skip, class, ctrl)
}

// ControlFeatures implements Denoiser.
//
//tracelint:hotpath
func (m *MLPDenoiser) ControlFeatures(tp *nn.Tape, control *tensor.Tensor) *nn.V {
	d := m.H * m.W
	return m.ctrlProj.Apply(tp, tp.Input(control.Reshape(control.Len()/d, d)))
}

// Trunk implements Denoiser: x projection plus time embedding,
// and the time-gated input skip (see the gate field's comment).
//
//tracelint:hotpath
func (m *MLPDenoiser) Trunk(tp *nn.Tape, xt *nn.V, steps []int) (h, skip *nn.V) {
	x2 := tp.Reshape(xt, xt.X.Shape[0], m.H*m.W)
	tfeat := tp.TimeEmbed(steps, timeEmbedDim)
	h = tp.Add(m.xProj.Apply(tp, x2), m.timeProj.Apply(tp, tfeat))
	skip = tp.MulScalarBroadcast(x2, m.gate.Apply(tp, tfeat))
	return h, skip
}

// Head implements Denoiser.
//
//tracelint:hotpath
func (m *MLPDenoiser) Head(tp *nn.Tape, h, skip *nn.V, class []int, ctrl *nn.V) *nn.V {
	h = tp.AddRepeat(m.classEmb.Apply(tp, class), h)
	if ctrl != nil {
		h = tp.AddRepeat(h, ctrl)
	}
	h = tp.SiLU(m.norm1.Apply(tp, h))
	h2 := tp.SiLU(m.norm2.Apply(tp, m.hid.Apply(tp, h)))
	h = tp.Add(h, h2) // residual
	eps := tp.AddRepeat(m.out.Apply(tp, h), skip)
	return tp.Reshape(eps, eps.X.Shape[0], 1, m.H, m.W)
}

// TimeEmbedDim exposes the sinusoidal feature width so wrappers (e.g.
// LoRA-adapted denoisers) can rebuild the conditioning path.
func TimeEmbedDim() int { return timeEmbedDim }

// Layer accessors let adapter wrappers (package lora) reuse the frozen
// base layers while substituting their own deltas.

// XProjLayer returns the input projection layer.
func (m *MLPDenoiser) XProjLayer() *nn.LinearLayer { return m.xProj }

// TimeProjLayer returns the timestep projection layer.
func (m *MLPDenoiser) TimeProjLayer() *nn.LinearLayer { return m.timeProj }

// CtrlProjLayer returns the control (ControlNet hook) projection.
func (m *MLPDenoiser) CtrlProjLayer() *nn.LinearLayer { return m.ctrlProj }

// Norm1Layer returns the first normalization layer.
func (m *MLPDenoiser) Norm1Layer() *nn.NormLayer { return m.norm1 }

// Norm2Layer returns the second normalization layer.
func (m *MLPDenoiser) Norm2Layer() *nn.NormLayer { return m.norm2 }

// HidLayer returns the hidden layer.
func (m *MLPDenoiser) HidLayer() *nn.LinearLayer { return m.hid }

// OutLayer returns the output projection layer.
func (m *MLPDenoiser) OutLayer() *nn.LinearLayer { return m.out }

// ClassEmbLayer returns the base class-embedding table.
func (m *MLPDenoiser) ClassEmbLayer() *nn.EmbeddingLayer { return m.classEmb }

// GateLayer returns the time-gated input-skip layer.
func (m *MLPDenoiser) GateLayer() *nn.LinearLayer { return m.gate }
