package tensor

import (
	"fmt"
	"math"
)

// This file is the int8 weight-quantized kernel family: per-output-
// channel symmetric quantization of a fp32 weight matrix plus the
// int8-weight x fp32-activation GEMM and convolution epilogue the
// inference path runs against it. Activations and accumulation stay
// fp32; only the weight bytes shrink 4x, which is where an inference
// GEMM's memory traffic lives (the activations are one row, the
// weights are the whole matrix).
//
// Determinism contract: identical to parallel.go. Every output element
// is a single sequential dot product over the contraction index — the
// per-row scale multiplies the finished sum once — so sharding the
// independent dimension never reorders accumulation, and results are
// bit-identical at GOMAXPROCS=1 and GOMAXPROCS=N.

// QuantizedMat is a per-row symmetrically quantized weight matrix:
// row o of the original fp32 matrix is approximately
// float32(Weights[o][i]) * Scales[o]. Rows here are output channels —
// both the Linear weight layout [out, in] and the conv weight layout
// [OutC, C*KH*KW] put the output channel on the row axis, so per-row
// scales are per-output-channel scales for every consumer.
type QuantizedMat struct {
	Rows, Cols int
	// Weights holds row-major int8 codes in [-127, 127] (the symmetric
	// range; -128 is never produced so negation stays exact).
	Weights []int8
	// Scales holds one fp32 dequantization scale per row.
	Scales []float32
}

// QuantizeSymmetric quantizes a fp32 matrix w [rows, cols] to int8
// with one symmetric scale per row: scale_o = maxabs(w[o,:]) / 127,
// code = round(w/scale) clamped to [-127, 127]. A row of exact zeros
// gets scale 1 and all-zero codes, so zero-initialized layers
// (ControlNet zero convs, zero-init output heads) round-trip exactly.
func QuantizeSymmetric(w *Tensor) *QuantizedMat {
	if len(w.Shape) != 2 {
		panic(fmt.Sprintf("tensor: QuantizeSymmetric wants a matrix, got %v", w.Shape))
	}
	rows, cols := w.Shape[0], w.Shape[1]
	q := &QuantizedMat{
		Rows: rows, Cols: cols,
		Weights: make([]int8, rows*cols),
		Scales:  make([]float32, rows),
	}
	for o := 0; o < rows; o++ {
		src := w.Data[o*cols : (o+1)*cols]
		var maxAbs float32
		for _, v := range src {
			a := v
			if a < 0 {
				a = -a
			}
			if a > maxAbs {
				maxAbs = a
			}
		}
		scale := maxAbs / 127
		//tracelint:allow floateq — exact-zero row check: scale is maxAbs/127, zero only for an all-zero row, where any positive scale dequantizes exactly
		if scale == 0 {
			scale = 1
		}
		q.Scales[o] = scale
		dst := q.Weights[o*cols : (o+1)*cols]
		inv := 1 / float64(scale)
		for i, v := range src {
			code := math.RoundToEven(float64(v) * inv)
			if code > 127 {
				code = 127
			} else if code < -127 {
				code = -127
			}
			dst[i] = int8(code)
		}
	}
	return q
}

// Dequantize expands the codes back to a fp32 matrix — the reference
// the round-trip error-bound tests check against, not an inference
// path.
func (q *QuantizedMat) Dequantize() *Tensor {
	t := New(q.Rows, q.Cols)
	for o := 0; o < q.Rows; o++ {
		s := q.Scales[o]
		src := q.Weights[o*q.Cols : (o+1)*q.Cols]
		dst := t.Data[o*q.Cols : (o+1)*q.Cols]
		for i, c := range src {
			dst[i] = float32(c) * s
		}
	}
	return t
}

// MatMulABTQInto computes C = A·Bqᵀ for fp32 A [m,k] and quantized Bq
// [n,k] into c [m,n]: the quantized twin of MatMulABTInto, which is
// what Linear layers run (W is stored [out, in]). Each element is an
// overwriting fp32 dot product over int8 codes, scaled once by the
// output channel's scale, so c need not be zeroed. Sharded and
// bit-deterministic exactly like the fp32 family.
//
//tracelint:hotpath
func MatMulABTQInto(c, a *Tensor, b *QuantizedMat) {
	m, k := a.Shape[0], a.Shape[1]
	if b.Cols != k {
		panic(fmt.Sprintf("tensor: matmulABTQ %v x [%d %d]", a.Shape, b.Rows, b.Cols))
	}
	n := b.Rows
	if c.Shape[0] != m || c.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmulABTQ out %v, want [%d %d]", c.Shape, m, n))
	}
	// Serial fast path before any closure is built, same as the fp32
	// kernels: the closure pair heap-allocates, which an inference loop
	// would pay every step.
	if !ParallelOK(m * k * n) {
		matmulABTQRows(c.Data, a.Data, b.Weights, b.Scales, 0, m, k, n)
		return
	}
	dispatch(m*k*n, m, 1, n,
		func(lo, hi int) { matmulABTQRows(c.Data, a.Data, b.Weights, b.Scales, lo, hi, k, n) },    //tracelint:allow hotalloc — parallel path only, gated by ParallelOK
		func(lo, hi int) { matmulABTQCols(c.Data, a.Data, b.Weights, b.Scales, m, k, n, lo, hi) }) //tracelint:allow hotalloc — parallel path only, gated by ParallelOK
}

// matmulABTQRows computes rows [lo, hi) of C = A·Bqᵀ. Each element is
// one sequential dot product (p strictly increasing), so there is no
// accumulation to reorder; the per-channel scale multiplies the
// finished sum exactly once.
func matmulABTQRows(c, a []float32, bq []int8, scales []float32, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		ai := a[i*k : (i+1)*k]
		ci := c[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			bj := bq[j*k : (j+1)*k]
			var sum float32
			for p := range ai {
				sum += ai[p] * float32(bj[p])
			}
			ci[j] = sum * scales[j]
		}
	}
}

// matmulABTQCols computes columns [jlo, jhi) of every row of C = A·Bqᵀ,
// element-for-element identical to matmulABTQRows.
func matmulABTQCols(c, a []float32, bq []int8, scales []float32, m, k, n, jlo, jhi int) {
	for i := 0; i < m; i++ {
		ai := a[i*k : (i+1)*k]
		ci := c[i*n : (i+1)*n]
		for j := jlo; j < jhi; j++ {
			bj := bq[j*k : (j+1)*k]
			var sum float32
			for p := range ai {
				sum += ai[p] * float32(bj[p])
			}
			ci[j] = sum * scales[j]
		}
	}
}

// Conv2DQ computes the forward convolution of x [N,C,H,W] against
// per-output-channel quantized weights qw [OutC, C*KH*KW] and fp32
// bias b [OutC], returning [N,OutC,OH,OW]: the quantized twin of
// Conv2D's fused epilogue. It is inference-only — no im2col matrix is
// returned because no backward pass ever runs against int8 weights.
//
//tracelint:hotpath
func Conv2DQ(x *Tensor, qw *QuantizedMat, b *Tensor, s ConvSpec) *Tensor {
	n, h, wd := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := s.OutSize(h, wd)
	if qw.Rows != s.OutC || qw.Cols != s.InC*s.KH*s.KW {
		panic(fmt.Sprintf("tensor: conv2dq weights [%d %d] for spec %+v", qw.Rows, qw.Cols, s))
	}
	cols := Im2Col(x, s)
	y := New(n, s.OutC, oh, ow)
	spatial := oh * ow
	rows := n * spatial
	rowLen := cols.Shape[1]
	//tracelint:allow hotalloc — one closure per conv call, amortized over the whole epilogue
	kernel := func(lo, hi int) {
		convEpilogueRowsQ(y.Data, cols.Data, qw.Weights, qw.Scales, b.Data, s.OutC, spatial, rowLen, lo, hi)
	}
	if !ParallelOK(rows * s.OutC * rowLen) {
		kernel(0, rows)
	} else {
		Shard(rows, kernel)
	}
	return y
}

// convEpilogueRowsQ is convEpilogueRows against int8 weights: im2col
// rows [lo, hi) times the transposed quantized weights, each dot
// product scaled once by its output channel's scale, plus bias,
// scattered to the [N, OutC, OH, OW] position. Every output cell is
// written exactly once by the worker that owns its row.
func convEpilogueRowsQ(y, cols []float32, wq []int8, scales, bias []float32, outC, spatial, rowLen, lo, hi int) {
	for r := lo; r < hi; r++ {
		bIdx, p := r/spatial, r%spatial
		cr := cols[r*rowLen : (r+1)*rowLen]
		out := y[bIdx*outC*spatial:]
		for o := 0; o < outC; o++ {
			wo := wq[o*rowLen : (o+1)*rowLen]
			var sum float32
			for q := range cr {
				sum += cr[q] * float32(wo[q])
			}
			out[o*spatial+p] = sum*scales[o] + bias[o]
		}
	}
}
