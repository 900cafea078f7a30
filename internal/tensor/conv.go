package tensor

import "fmt"

// ConvSpec describes a 2D convolution's geometry.
type ConvSpec struct {
	InC, OutC int
	KH, KW    int
	Stride    int
	Pad       int
}

// OutSize returns the spatial output size for an input of h x w.
func (s ConvSpec) OutSize(h, w int) (oh, ow int) {
	oh = (h+2*s.Pad-s.KH)/s.Stride + 1
	ow = (w+2*s.Pad-s.KW)/s.Stride + 1
	return oh, ow
}

// Im2Col unrolls x [N,C,H,W] into columns [N*OH*OW, C*KH*KW] so the
// convolution becomes a matrix multiply against the [OutC, C*KH*KW]
// weight matrix. Output rows are independent gathers, sharded across
// GOMAXPROCS workers.
func Im2Col(x *Tensor, s ConvSpec) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if c != s.InC {
		panic(fmt.Sprintf("tensor: im2col channels %d != spec %d", c, s.InC))
	}
	oh, ow := s.OutSize(h, w)
	rows := n * oh * ow
	rowLen := c * s.KH * s.KW
	cols := New(rows, rowLen)
	kernel := func(lo, hi int) { im2colRows(cols.Data, x.Data, s, c, h, w, oh, ow, lo, hi) } //tracelint:allow hotalloc — one closure per conv call, amortized over the whole im2col gather
	if !ParallelOK(rows * rowLen) {
		kernel(0, rows)
	} else {
		Shard(rows, kernel)
	}
	return cols
}

// im2colRows gathers output rows [lo, hi); each row is owned by exactly
// one worker.
func im2colRows(dst, x []float32, s ConvSpec, c, h, w, oh, ow, lo, hi int) {
	rowLen := c * s.KH * s.KW
	for row := lo; row < hi; row++ {
		b := row / (oh * ow)
		rem := row % (oh * ow)
		oy, ox := rem/ow, rem%ow
		base := b * c * h * w
		d := dst[row*rowLen:]
		idx := 0
		for ch := 0; ch < c; ch++ {
			cbase := base + ch*h*w
			for ky := 0; ky < s.KH; ky++ {
				iy := oy*s.Stride + ky - s.Pad
				for kx := 0; kx < s.KW; kx++ {
					ix := ox*s.Stride + kx - s.Pad
					if iy >= 0 && iy < h && ix >= 0 && ix < w {
						d[idx] = x[cbase+iy*w+ix]
					}
					idx++
				}
			}
		}
	}
}

// Col2Im scatters column gradients back to input space (the adjoint of
// Im2Col). h and w are the original spatial dims. Kernel windows
// overlap within an image, so the shardable unit is the batch index:
// each worker owns whole images and scatters its rows in the serial
// kernel's order, keeping accumulation per input cell bit-identical.
func Col2Im(cols *Tensor, s ConvSpec, n, h, w int) *Tensor {
	c := s.InC
	oh, ow := s.OutSize(h, w)
	x := New(n, c, h, w)
	kernel := func(blo, bhi int) { col2imBatches(x.Data, cols.Data, s, c, h, w, oh, ow, blo, bhi) }
	if !ParallelOK(n*oh*ow*c*s.KH*s.KW) || n == 1 {
		kernel(0, n)
	} else {
		Shard(n, kernel)
	}
	return x
}

// col2imBatches scatters the rows of images [blo, bhi); different
// images never share input cells.
func col2imBatches(x, cols []float32, s ConvSpec, c, h, w, oh, ow, blo, bhi int) {
	rowLen := c * s.KH * s.KW
	for b := blo; b < bhi; b++ {
		base := b * c * h * w
		row := b * oh * ow
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				src := cols[row*rowLen:]
				idx := 0
				for ch := 0; ch < c; ch++ {
					cbase := base + ch*h*w
					for ky := 0; ky < s.KH; ky++ {
						iy := oy*s.Stride + ky - s.Pad
						for kx := 0; kx < s.KW; kx++ {
							ix := ox*s.Stride + kx - s.Pad
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								x[cbase+iy*w+ix] += src[idx]
							}
							idx++
						}
					}
				}
				row++
			}
		}
	}
}

// Conv2D computes a forward convolution of x [N,C,H,W] with weights
// w [OutC, C*KH*KW] and bias b [OutC], returning [N,OutC,OH,OW]. It
// also returns the im2col matrix for reuse in the backward pass.
//
// The matmul against the weights, the bias add and the
// [N*OH*OW, OutC] → [N, OutC, OH, OW] transpose are fused into one
// sharded pass: each worker computes whole output rows (dot products in
// sequential order, exactly like MatMulABT) and writes them, plus bias,
// straight into their transposed positions — no intermediate [rows,
// OutC] tensor and no second sweep over the output.
func Conv2D(x, w, b *Tensor, s ConvSpec) (y, cols *Tensor) {
	n, h, wd := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := s.OutSize(h, wd)
	cols = Im2Col(x, s)
	y = New(n, s.OutC, oh, ow)
	spatial := oh * ow
	rows := n * spatial
	rowLen := cols.Shape[1]
	kernel := func(lo, hi int) {
		convEpilogueRows(y.Data, cols.Data, w.Data, b.Data, s.OutC, spatial, rowLen, lo, hi)
	}
	if !ParallelOK(rows * s.OutC * rowLen) {
		kernel(0, rows)
	} else {
		Shard(rows, kernel)
	}
	return y, cols
}

// convEpilogueRows computes im2col rows [lo, hi) times the transposed
// weights, adds the bias, and scatters each result to its [N, OutC, OH,
// OW] position. Every output cell is written exactly once by the worker
// that owns its row.
func convEpilogueRows(y, cols, w, bias []float32, outC, spatial, rowLen, lo, hi int) {
	for r := lo; r < hi; r++ {
		bIdx, p := r/spatial, r%spatial
		cr := cols[r*rowLen : (r+1)*rowLen]
		out := y[bIdx*outC*spatial:]
		for o := 0; o < outC; o++ {
			wo := w[o*rowLen : (o+1)*rowLen]
			var sum float32
			for q := range cr {
				sum += cr[q] * wo[q]
			}
			out[o*spatial+p] = sum + bias[o]
		}
	}
}

// Conv2DBackward computes input, weight and bias gradients for Conv2D.
// dy is [N,OutC,OH,OW]; cols is the matrix returned by Conv2D.
func Conv2DBackward(dy, cols, w *Tensor, s ConvSpec, n, h, wd int) (dx, dw, db *Tensor) {
	oh, ow := s.OutSize(h, wd)
	spatial := oh * ow
	// Re-layout dy to [N*OH*OW, OutC], sharded over images (each image
	// writes a disjoint row block).
	dyT := New(n*spatial, s.OutC)
	relayout := func(blo, bhi int) {
		for bIdx := blo; bIdx < bhi; bIdx++ {
			for o := 0; o < s.OutC; o++ {
				src := dy.Data[bIdx*s.OutC*spatial+o*spatial:]
				for p := 0; p < spatial; p++ {
					dyT.Data[(bIdx*spatial+p)*s.OutC+o] = src[p]
				}
			}
		}
	}
	if !ParallelOK(n * s.OutC * spatial) {
		relayout(0, n)
	} else {
		Shard(n, relayout)
	}
	// dw [OutC, C*KH*KW] = dyTᵀ · cols
	dw = MatMulATB(dyT, cols)
	// db [OutC] = column sums of dyT.
	db = New(s.OutC)
	for r := 0; r < dyT.Shape[0]; r++ {
		row := dyT.Data[r*s.OutC:]
		for o := 0; o < s.OutC; o++ {
			db.Data[o] += row[o]
		}
	}
	// dcols = dyT · w, then scatter back.
	dcols := MatMul(dyT, w)
	dx = Col2Im(dcols, s, n, h, wd)
	return dx, dw, db
}
