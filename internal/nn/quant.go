package nn

// This file is quantized inference for the layer types: per-output-
// channel symmetric int8 weights with fp32 activations, bias and
// accumulation.
//
// Quantization happens once, at checkpoint-load time — Quantize()
// converts a layer's fp32 weight matrix to a tensor.QuantizedMat and
// the layer's Apply dispatches to the int8 kernels from then on. The
// fp32 weights are kept (serialization and any later re-quantization
// read them); only the forward math changes. Training is untouched by
// construction: the quantized ops refuse to run on a gradient-recording
// tape, so a quantized layer can never silently train against stale
// int8 weights.

import (
	"fmt"

	"trafficdiff/internal/tensor"
)

// Quantize converts the layer's weights to per-output-channel int8.
// After the call, Apply runs the quantized GEMM on no-grad tapes and
// panics on gradient-recording ones. Call again after mutating W
// (e.g. a LoRA merge) to refresh the codes.
func (l *LinearLayer) Quantize() {
	l.Q = tensor.QuantizeSymmetric(l.W.X)
}

// Quantized reports whether Quantize has run.
func (l *LinearLayer) Quantized() bool { return l.Q != nil }

// Unquantize drops the int8 codes, returning Apply to the fp32 path
// (W was never modified, so the revert is byte-exact).
func (l *LinearLayer) Unquantize() { l.Q = nil }

// Quantize converts the conv weights [OutC, C*KH*KW] to per-output-
// channel int8, switching Apply to the quantized epilogue.
func (l *ConvLayer) Quantize() {
	l.Q = tensor.QuantizeSymmetric(l.W.X)
}

// Quantized reports whether Quantize has run.
func (l *ConvLayer) Quantized() bool { return l.Q != nil }

// Unquantize drops the int8 codes, like LinearLayer.Unquantize.
func (l *ConvLayer) Unquantize() { l.Q = nil }

// LinearQ is the int8-weight twin of Linear: out = x·Wqᵀ + b for
// x [N,in], quantized weights [out,in] and fp32 bias [out].
// Inference-only — it records no backward closure and refuses to run
// while the tape records gradients.
func (t *Tape) LinearQ(x *V, w *tensor.QuantizedMat, bias *V) *V {
	if t.grad() {
		//tracelint:allow paniccheck — inference-only contract: training must never touch int8 weights
		panic("nn: LinearQ on a gradient-recording tape (quantized layers are inference-only)")
	}
	n, in := x.X.Shape[0], x.X.Shape[1]
	if w.Cols != in || bias.X.Shape[0] != w.Rows {
		panic(fmt.Sprintf("nn: LinearQ shapes x%v w[%d %d] b%v", x.X.Shape, w.Rows, w.Cols, bias.X.Shape))
	}
	outDim := w.Rows
	out := t.alloc(n, outDim)
	tensor.MatMulABTQInto(out.X, x.X, w)
	addBias(out.X.Data, bias.X.Data, n)
	return out
}

// Conv2DQ is the int8-weight twin of Conv2D, inference-only like
// LinearQ.
func (t *Tape) Conv2DQ(x *V, w *tensor.QuantizedMat, b *V, s tensor.ConvSpec) *V {
	if t.grad() {
		//tracelint:allow paniccheck — inference-only contract: training must never touch int8 weights
		panic("nn: Conv2DQ on a gradient-recording tape (quantized layers are inference-only)")
	}
	return t.adopt(tensor.Conv2DQ(x.X, w, b.X, s))
}
