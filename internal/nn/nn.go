// Package nn is a small reverse-mode automatic-differentiation engine
// and neural-network toolkit built on the tensor package. It provides
// exactly the operations the diffusion denoiser, LoRA adapters,
// ControlNet branch and GAN baseline need: linear layers, pointwise
// activations, layer normalization, embeddings, and reduction losses —
// each with a hand-written, gradient-checked backward.
//
// Usage follows the tape pattern: ops record their backward closures
// onto a Tape; Backward(loss) seeds the loss gradient and unwinds the
// tape. A gradient buffer exists only where something reads it: the
// outputs of a gradient-recording tape carry one, a parameter carries
// one only while an optimizer trains it (NewAdam allocates it, Release
// drops it), and a network input (NewV, Tape.Input, Tape.TimeEmbed)
// carries none. Every backward closure skips an operand without a
// buffer, so a frozen weight costs no weight-gradient GEMM and an input
// no input-gradient GEMM.
package nn

import (
	"fmt"

	"trafficdiff/internal/tensor"
)

// V is a tensor value in the autodiff graph with its gradient G. G is
// non-nil on the outputs of a gradient-recording tape (allocated by the
// tape) and on the parameters an optimizer trains (allocated by
// NewAdam, dropped by Adam.Release). It is nil everywhere else: on
// parameters no optimizer holds (a loaded or frozen model), on network
// inputs (NewV, and a tape's Input and TimeEmbed values), and on values
// a no-grad tape produced (Tape.SetNoGrad). Backward skips every nil G.
type V struct {
	X *tensor.Tensor
	G *tensor.Tensor
}

// NewV wraps x as a graph value without a gradient buffer.
func NewV(x *tensor.Tensor) *V { return &V{X: x} }

// Param allocates a parameter with the given shape in long-lived
// storage (tensor.NewLongLived: a large one outside the Go heap) and
// with no gradient buffer; NewAdam gives it one when it trains it.
func Param(shape ...int) *V { return NewV(tensor.NewLongLived(shape...)) }

// ZeroGrad clears the gradient.
func (v *V) ZeroGrad() { v.G.Zero() }

// Tape records backward closures in execution order. With reuse
// enabled (EnableReuse) it also owns an arena of output tensors:
// training loops whose shapes repeat every step can run Recycle()
// after the optimizer step to return all tape-allocated values to the
// pool instead of garbage-collecting them. With no-grad mode on
// (SetNoGrad) ops compute values only — no backward closures are
// built and no gradient buffers are allocated or cleared, which makes
// a reuse-enabled tape's steady state essentially allocation-free for
// inference loops whose shapes repeat every step (the batched
// diffusion sampler).
type Tape struct {
	steps []func()

	nograd bool

	reuse bool
	free  map[int][]*V // recycled values keyed by element count
	taken []*V         // values handed out since the last Recycle
	// scratch float32 buffers (activation caches like SiLU's sigmoid
	// values) recycle through the same lifecycle as values.
	sfree  map[int][][]float32
	staken [][]float32
	// view headers (Reshape results) recycle likewise: a reshape
	// shares storage, so only its V/Tensor headers need pooling.
	vfree  []*viewV
	vtaken []*viewV
}

// viewV owns the headers of one pooled Reshape result: the V plus the
// two Tensor headers it points at. The storage they view belongs to
// the reshaped value.
type viewV struct {
	v      V
	xt, gt tensor.Tensor
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// EnableReuse turns on the tape's output arena. Callers that enable it
// must call Recycle only when no value produced by this tape since the
// last Recycle is referenced anymore (typically right after the
// optimizer step consumes the gradients).
func (t *Tape) EnableReuse() {
	t.reuse = true
	if t.free == nil {
		t.free = make(map[int][]*V)
		t.sfree = make(map[int][][]float32)
	}
}

// SetNoGrad toggles forward-only mode: while on, ops skip recording
// backward closures (and skip building the captures they would need),
// so Backward must not be called on values produced under it. Forward
// values are unaffected — a no-grad pass is bit-identical to a normal
// one. Samplers flip this on once and keep the tape for the whole
// reverse process.
func (t *Tape) SetNoGrad(on bool) { t.nograd = on }

// grad reports whether ops should record backward closures. Each op
// guards its closure construction with this so no-grad passes do not
// pay the closure allocations.
func (t *Tape) grad() bool { return !t.nograd }

// newV wraps x as a value of this tape, with a zero gradient buffer
// when grad is set: on a gradient-recording tape, for every value but a
// constant. A no-grad tape's values carry none — nothing reads a
// gradient there, so an inference loop neither allocates nor re-zeroes
// a second tensor behind every op output.
func (t *Tape) newV(x *tensor.Tensor, grad bool) *V {
	//tracelint:allow hotalloc — arena miss: hot callers hit Tape.alloc's free list in steady state
	v := &V{X: x}
	if grad {
		//tracelint:allow hotalloc — arena miss: hot callers hit Tape.alloc's free list in steady state
		v.G = tensor.New(x.Shape...)
	}
	return v
}

// alloc returns a graph value of the given shape for an op that
// overwrites every element of X, reusing a recycled buffer of the same
// element count when the arena is on. A recycled X keeps its old
// contents — clearing a buffer the next loop rewrites in full is a pass
// over memory nothing reads; every op writes its whole output before
// reading it. When the recycled buffer's shape already
// matches (the steady state of a loop with fixed shapes), the value is
// handed back as-is with no new header allocations. G is always handed
// out zeroed, since backward passes accumulate into it; on a no-grad
// tape the value carries no gradient buffer (see newV), and a recycled
// one that has a buffer from an earlier gradient pass keeps it,
// untouched.
func (t *Tape) alloc(shape ...int) *V { return t.allocGrad(!t.nograd, shape...) }

// allocGrad is alloc with the gradient buffer's presence explicit: with
// grad unset, a fresh value gets none and a recycled one keeps whatever
// buffer it has, uncleared.
func (t *Tape) allocGrad(grad bool, shape ...int) *V {
	if !t.reuse {
		return t.newV(tensor.New(shape...), grad)
	}
	n := 1
	for _, s := range shape {
		n *= s
	}
	if vs := t.free[n]; len(vs) > 0 {
		base := vs[len(vs)-1]
		t.free[n] = vs[:len(vs)-1]
		if grad {
			if base.G == nil {
				//tracelint:allow hotalloc — a value pooled by a no-grad pass meets its first gradient pass; once per buffer
				base.G = tensor.New(base.X.Shape...)
			} else {
				base.G.Zero()
			}
		}
		v := base
		if !shapeEq(base.X.Shape, shape) {
			//tracelint:allow hotalloc — header-only rewrap when a reused buffer changes shape; data is shared
			v = &V{X: base.X.Reshape(shape...)}
			if grad {
				v.G = base.G.Reshape(shape...)
			}
		}
		//tracelint:allow hotalloc — bookkeeping append: taken reaches steady capacity after the first step
		t.taken = append(t.taken, v)
		return v
	}
	//tracelint:allow hotalloc — arena miss: first step only, recycled afterwards
	v := t.newV(tensor.New(shape...), grad)
	//tracelint:allow hotalloc — bookkeeping append: taken reaches steady capacity after the first step
	t.taken = append(t.taken, v)
	return v
}

// shapeEq reports whether a tensor shape equals the requested dims.
func shapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// scratch returns a float32 buffer of length n from the arena (or a
// fresh one when reuse is off). The caller must fully overwrite it —
// recycled buffers keep their old contents.
func (t *Tape) scratch(n int) []float32 {
	if !t.reuse {
		//tracelint:allow hotalloc — reuse off: training tapes without an arena; samplers enable it
		return make([]float32, n)
	}
	if bs := t.sfree[n]; len(bs) > 0 {
		b := bs[len(bs)-1]
		t.sfree[n] = bs[:len(bs)-1]
		//tracelint:allow hotalloc — bookkeeping append: staken reaches steady capacity after the first step
		t.staken = append(t.staken, b)
		return b
	}
	//tracelint:allow hotalloc — arena miss: first step only, recycled afterwards
	b := make([]float32, n)
	//tracelint:allow hotalloc — bookkeeping append: staken reaches steady capacity after the first step
	t.staken = append(t.staken, b)
	return b
}

// constant returns a value of the given shape for an op whose output
// is a network input (Input, TimeEmbed): nothing differentiates into
// it, so on a gradient tape too it carries no gradient buffer, and the
// layer that reads it skips its input-gradient GEMM. Its storage comes
// from the arena like alloc's; a recycled value that has a buffer keeps
// it for later gradient passes and is handed out through a view of its
// X alone. On a no-grad tape it is alloc.
func (t *Tape) constant(shape ...int) *V {
	v := t.allocGrad(false, shape...)
	if v.G == nil || t.nograd {
		return v
	}
	w := t.view(shape)
	w.xt.ViewOf(v.X)
	return &w.v
}

// Input copies x into a tape-owned value: the graph node for a
// constant network input (a control image, a fixed embedding). Unlike
// NewV it participates in the arena, so loops that feed the same-shape
// input every step stop allocating for it after the first step.
func (t *Tape) Input(x *tensor.Tensor) *V {
	v := t.constant(x.Shape...)
	copy(v.X.Data, x.Data)
	return v
}

// Recycle returns every value the tape allocated since the last
// Recycle to the arena. No-op unless EnableReuse was called.
func (t *Tape) Recycle() {
	if !t.reuse {
		return
	}
	for _, v := range t.taken {
		n := v.X.Len()
		//tracelint:allow hotalloc — free-list append: capacity reaches steady state after the first cycle
		t.free[n] = append(t.free[n], v)
	}
	t.taken = t.taken[:0]
	for _, b := range t.staken {
		//tracelint:allow hotalloc — free-list append: capacity reaches steady state after the first cycle
		t.sfree[len(b)] = append(t.sfree[len(b)], b)
	}
	t.staken = t.staken[:0]
	//tracelint:allow hotalloc — free-list append: capacity reaches steady state after the first cycle
	t.vfree = append(t.vfree, t.vtaken...)
	t.vtaken = t.vtaken[:0]
}

// record appends a backward closure.
func (t *Tape) record(f func()) {
	//tracelint:allow hotalloc — gradient tapes only: every caller is guarded by t.grad()
	t.steps = append(t.steps, f)
}

// Backward seeds d(loss)/d(loss)=1 and runs all recorded closures in
// reverse. loss must be scalar (one element).
func (t *Tape) Backward(loss *V) {
	if loss.X.Len() != 1 {
		panic(fmt.Sprintf("nn: Backward needs a scalar loss, got shape %v", loss.X.Shape))
	}
	loss.G.Data[0] = 1
	for i := len(t.steps) - 1; i >= 0; i-- {
		t.steps[i]()
	}
	t.steps = t.steps[:0]
}

// Reset drops recorded steps without running them (e.g. after a
// forward-only pass).
func (t *Tape) Reset() { t.steps = t.steps[:0] }

// Add returns a+b (same shapes), in one pass over the three buffers.
func (t *Tape) Add(a, b *V) *V {
	if !a.X.SameShape(b.X) {
		panic("nn: Add shape mismatch")
	}
	out := t.alloc(a.X.Shape...)
	od, ad, bd := out.X.Data, a.X.Data, b.X.Data
	if tensor.ParallelOK(len(od) * workAdd) {
		//tracelint:allow hotalloc — parallel path only, behind the size check
		tensor.Shard(len(od), func(lo, hi int) { tensor.Add(od[lo:hi], ad[lo:hi], bd[lo:hi]) })
	} else {
		tensor.Add(od, ad, bd)
	}
	if t.grad() {
		//tracelint:allow hotalloc — gradient tapes only: guarded by t.grad(), never built on a no-grad sampler tape
		t.record(func() {
			if a.G != nil {
				a.G.AddInto(out.G)
			}
			if b.G != nil {
				b.G.AddInto(out.G)
			}
		})
	}
	return out
}

// AddRepeat returns a + b with b's rows repeated down a: a is [m, c],
// b is [n, c] with n dividing m, and row r of the result is a's row r
// plus b's row r mod n, each element one float32 add. With m == n it is
// Add. A guided denoiser head adds the n rows its conditional and
// unconditional halves share this way instead of adding a stacked copy
// of them, with the same bits: each element's add keeps its operands,
// and IEEE addition is commutative.
func (t *Tape) AddRepeat(a, b *V) *V {
	if len(a.X.Shape) != 2 || len(b.X.Shape) != 2 || a.X.Shape[1] != b.X.Shape[1] ||
		b.X.Shape[0] == 0 || a.X.Shape[0]%b.X.Shape[0] != 0 {
		panic(fmt.Sprintf("nn: AddRepeat shapes %v + %v", a.X.Shape, b.X.Shape))
	}
	if a.X.Shape[0] == b.X.Shape[0] {
		return t.Add(a, b)
	}
	out := t.alloc(a.X.Shape...)
	od, ad, bd := out.X.Data, a.X.Data, b.X.Data
	if tensor.ParallelOK(len(od) * workAdd) {
		//tracelint:allow hotalloc — parallel path only, behind the size check
		tensor.Shard(len(od), func(lo, hi int) { addRepeatRange(od, ad, bd, lo, hi) })
	} else {
		addRepeatRange(od, ad, bd, 0, len(od))
	}
	if t.grad() {
		//tracelint:allow hotalloc — gradient tapes only: guarded by t.grad(), never built on a no-grad sampler tape
		t.record(func() {
			if a.G != nil {
				a.G.AddInto(out.G)
			}
			if b.G == nil {
				return
			}
			for i, g := range out.G.Data {
				b.G.Data[i%len(b.G.Data)] += g
			}
		})
	}
	return out
}

// addRepeatRange sets dst[i] = a[i] + b[i mod len(b)] for i in [lo, hi).
func addRepeatRange(dst, a, b []float32, lo, hi int) {
	for lo < hi {
		off := lo % len(b)
		end := min(hi, lo+len(b)-off)
		tensor.Add(dst[lo:end], a[lo:end], b[off:])
		lo = end
	}
}

// Scale returns s*a for a constant s.
func (t *Tape) Scale(a *V, s float32) *V {
	out := t.alloc(a.X.Shape...)
	for i, v := range a.X.Data {
		out.X.Data[i] = s * v
	}
	if t.grad() {
		//tracelint:allow hotalloc — gradient tapes only: guarded by t.grad(), never built on a no-grad sampler tape
		t.record(func() {
			if a.G == nil {
				return
			}
			for i, g := range out.G.Data {
				a.G.Data[i] += float32(s * g)
			}
		})
	}
	return out
}

// Reshape returns a view of a with a new shape. The gradient flows
// back through the same view (shared storage: no tape step needed).
// With reuse on, the view's headers come from the tape's pool, so a
// steady-state loop pays no header allocations for reshapes.
func (t *Tape) Reshape(a *V, shape ...int) *V {
	if !t.reuse {
		//tracelint:allow hotalloc — reuse off: training tapes without an arena; samplers enable it
		v := &V{X: a.X.Reshape(shape...)}
		if a.G != nil {
			v.G = a.G.Reshape(shape...)
		}
		return v
	}
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != a.X.Len() {
		panic(fmt.Sprintf("tensor: reshape %v -> %v", a.X.Shape, shape))
	}
	w := t.view(shape)
	w.xt.ViewOf(a.X)
	if a.G != nil { // values without a gradient have none to view
		w.gt.Shape = w.xt.Shape
		w.gt.ViewOf(a.G)
		w.v.G = &w.gt
	}
	return &w.v
}

// view returns a pooled view header of the given shape whose V points
// at its X header and has no G; the caller sets the data it views. The
// header returns to the pool at Recycle.
func (t *Tape) view(shape []int) *viewV {
	var w *viewV
	if len(t.vfree) > 0 {
		w = t.vfree[len(t.vfree)-1]
		t.vfree = t.vfree[:len(t.vfree)-1]
	} else {
		//tracelint:allow hotalloc — pool miss: first step only, recycled afterwards
		w = &viewV{}
	}
	//tracelint:allow hotalloc — bookkeeping append: vtaken reaches steady capacity after the first step
	t.vtaken = append(t.vtaken, w)
	// X and G share one shape slice; shapes are read-only by convention.
	//tracelint:allow hotalloc — a pooled header's shape slice keeps its capacity across steps
	w.xt.Shape = append(w.xt.Shape[:0], shape...)
	w.v.X, w.v.G = &w.xt, nil
	return w
}

// Linear computes x·wᵀ + bias for x [N,in], w [out,in], bias [out]. A
// nil bias means none: the product is returned as is. That is
// bit-identical to adding a zero bias — a dot product accumulated from
// +0 is never -0, and v + 0 == v for every other v — without the
// caller keeping a zero parameter (and its gradient) around.
func (t *Tape) Linear(x, w, bias *V) *V {
	n, in := x.X.Shape[0], x.X.Shape[1]
	outDim := w.X.Shape[0]
	if w.X.Shape[1] != in {
		panic(fmt.Sprintf("nn: Linear shapes x%v w%v", x.X.Shape, w.X.Shape))
	}
	if bias != nil && bias.X.Shape[0] != outDim {
		panic(fmt.Sprintf("nn: Linear shapes x%v w%v b%v", x.X.Shape, w.X.Shape, bias.X.Shape))
	}
	out := t.alloc(n, outDim)
	tensor.MatMulABTInto(out.X, x.X, w.X)
	if bias != nil {
		addBias(out.X.Data, bias.X.Data, n)
	}
	if t.grad() {
		//tracelint:allow hotalloc — gradient tapes only: guarded by t.grad(), never built on a no-grad sampler tape
		t.record(func() {
			// dx = dout·w ; dw = doutᵀ·x ; db = column sums of dout.
			// An operand without a gradient buffer (a network input, a
			// frozen weight) skips its GEMM altogether.
			if x.G != nil {
				x.G.AddInto(tensor.MatMul(out.G, w.X))
			}
			if w.G != nil {
				w.G.AddInto(tensor.MatMulATB(out.G, x.X))
			}
			if bias == nil || bias.G == nil {
				return
			}
			for r := 0; r < n; r++ {
				row := out.G.Data[r*outDim:]
				for o := 0; o < outDim; o++ {
					bias.G.Data[o] += row[o]
				}
			}
		})
	}
	return out
}
