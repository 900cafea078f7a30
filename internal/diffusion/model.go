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
// bytes, and Forward is this composition through the same methods:
// there is one copy of the arithmetic.
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

// Delta changes what one linear projection of the model computes: Apply
// returns the adapted output of base layer l on x (a LoRA adapter, for
// instance, adds its low-rank product to l's).
type Delta interface {
	Apply(tp *nn.Tape, l *nn.LinearLayer, x *nn.V) *nn.V
}

// MLPDenoiser is a compact fully-connected ε-predictor: fast enough to
// train in seconds on CPU, used by tests and the default pipeline.
type MLPDenoiser struct {
	H, W   int
	Hidden int

	classEmb *nn.EmbeddingLayer // K+1 rows for K classes, null last
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

	// xDelta, hidDelta and outDelta, when set, adapt the x, hidden
	// and output projections (see Adapted); nil runs the layer alone.
	xDelta, hidDelta, outDelta Delta
}

// NewMLPDenoiser builds a denoiser for h x w single-channel images
// with k conditioning classes. A nil r skips the random init and leaves
// every weight zero — the skeleton a checkpoint loader fills.
func NewMLPDenoiser(r *stats.RNG, h, w, hidden, k int) *MLPDenoiser {
	d := h * w
	m := &MLPDenoiser{
		H: h, W: w, Hidden: hidden,
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

// Adapted returns a view of m whose x, hidden and output projections
// run through the given deltas and whose class table is classEmb; every
// other layer is m's own, shared, so the view runs m's forward with
// the deltas attached. Its Params still lists the shared layers.
func (m *MLPDenoiser) Adapted(x, hid, out Delta, classEmb *nn.EmbeddingLayer) *MLPDenoiser {
	v := *m
	v.xDelta, v.hidDelta, v.outDelta, v.classEmb = x, hid, out, classEmb
	return &v
}

// project applies linear layer l to x through delta d, if any.
//
//tracelint:hotpath
func project(tp *nn.Tape, l *nn.LinearLayer, d Delta, x *nn.V) *nn.V {
	if d == nil {
		return l.Apply(tp, x)
	}
	return d.Apply(tp, l, x)
}

// NullClass implements Denoiser: the class table's last row.
func (m *MLPDenoiser) NullClass() int { return m.classEmb.Table.X.Shape[0] - 1 }

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

// Forward implements Denoiser as head∘trunk: trunk, control
// projection, head, each over the same rows.
//
//tracelint:hotpath
func (m *MLPDenoiser) Forward(tp *nn.Tape, xt *nn.V, steps []int, class []int, control *tensor.Tensor) *nn.V {
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
	h = tp.Add(project(tp, m.xProj, m.xDelta, x2), m.timeProj.Apply(tp, tfeat))
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
	h2 := tp.SiLU(m.norm2.Apply(tp, project(tp, m.hid, m.hidDelta, h)))
	h = tp.Add(h, h2) // residual
	eps := tp.AddRepeat(project(tp, m.out, m.outDelta, h), skip)
	return tp.Reshape(eps, eps.X.Shape[0], 1, m.H, m.W)
}

// TimeEmbedDim exposes the sinusoidal feature width, the fan-in of the
// time projection and the skip gate.
func TimeEmbedDim() int { return timeEmbedDim }

// Layer accessors let tests set base weights directly.

// CtrlProjLayer returns the control (ControlNet hook) projection.
func (m *MLPDenoiser) CtrlProjLayer() *nn.LinearLayer { return m.ctrlProj }

// OutLayer returns the output projection layer.
func (m *MLPDenoiser) OutLayer() *nn.LinearLayer { return m.out }

// ClassEmbLayer returns the class-embedding table.
func (m *MLPDenoiser) ClassEmbLayer() *nn.EmbeddingLayer { return m.classEmb }
