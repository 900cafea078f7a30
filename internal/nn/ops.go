package nn

import (
	"math"

	"trafficdiff/internal/tensor"
)

// SiLU applies x*sigmoid(x) elementwise (the denoiser's activation).
func (t *Tape) SiLU(a *V) *V {
	out := t.alloc(a.X.Shape...)
	sig := t.scratch(len(a.X.Data))
	for i, v := range a.X.Data {
		s := float32(1 / (1 + math.Exp(-float64(v))))
		sig[i] = s
		out.X.Data[i] = v * s
	}
	if t.grad() {
		//tracelint:allow hotalloc — gradient tapes only: guarded by t.grad(), never built on a no-grad sampler tape
		t.record(func() {
			for i, g := range out.G.Data {
				s := sig[i]
				v := a.X.Data[i]
				a.G.Data[i] += g * (s + v*s*(1-s))
			}
		})
	}
	return out
}

// Tanh applies tanh elementwise.
func (t *Tape) Tanh(a *V) *V {
	out := t.alloc(a.X.Shape...)
	for i, v := range a.X.Data {
		out.X.Data[i] = float32(math.Tanh(float64(v)))
	}
	if t.grad() {
		t.record(func() {
			for i, g := range out.G.Data {
				y := out.X.Data[i]
				a.G.Data[i] += g * (1 - y*y)
			}
		})
	}
	return out
}

// Sigmoid applies the logistic function elementwise.
func (t *Tape) Sigmoid(a *V) *V {
	out := t.alloc(a.X.Shape...)
	for i, v := range a.X.Data {
		out.X.Data[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
	if t.grad() {
		t.record(func() {
			for i, g := range out.G.Data {
				y := out.X.Data[i]
				a.G.Data[i] += g * y * (1 - y)
			}
		})
	}
	return out
}

// LeakyReLU applies max(x, alpha*x) elementwise (GAN discriminator).
func (t *Tape) LeakyReLU(a *V, alpha float32) *V {
	out := t.alloc(a.X.Shape...)
	for i, v := range a.X.Data {
		if v >= 0 {
			out.X.Data[i] = v
		} else {
			out.X.Data[i] = alpha * v
		}
	}
	if t.grad() {
		t.record(func() {
			for i, g := range out.G.Data {
				if a.X.Data[i] >= 0 {
					a.G.Data[i] += g
				} else {
					a.G.Data[i] += alpha * g
				}
			}
		})
	}
	return out
}

// LayerNorm normalizes each row of x [N,D] to zero mean / unit
// variance, then scales by gamma [D] and shifts by beta [D].
func (t *Tape) LayerNorm(x, gamma, beta *V) *V {
	n, d := x.X.Shape[0], x.X.Shape[1]
	const eps = 1e-5
	out := t.alloc(n, d)
	xhat := t.scratch(n * d)
	invStd := t.scratch(n)
	for r := 0; r < n; r++ {
		row := x.X.Data[r*d : (r+1)*d]
		var mean float64
		for _, v := range row {
			mean += float64(v)
		}
		mean /= float64(d)
		var varsum float64
		for _, v := range row {
			dv := float64(v) - mean
			varsum += dv * dv
		}
		is := float32(1 / math.Sqrt(varsum/float64(d)+eps))
		invStd[r] = is
		for j, v := range row {
			h := (v - float32(mean)) * is
			xhat[r*d+j] = h
			out.X.Data[r*d+j] = h*gamma.X.Data[j] + beta.X.Data[j]
		}
	}
	if t.grad() {
		//tracelint:allow hotalloc — gradient tapes only: guarded by t.grad(), never built on a no-grad sampler tape
		t.record(func() {
			for r := 0; r < n; r++ {
				var sumG, sumGH float32
				gRow := out.G.Data[r*d : (r+1)*d]
				for j, g := range gRow {
					gg := g * gamma.X.Data[j]
					sumG += gg
					sumGH += gg * xhat[r*d+j]
					gamma.G.Data[j] += g * xhat[r*d+j]
					beta.G.Data[j] += g
				}
				is := invStd[r]
				for j, g := range gRow {
					gg := g * gamma.X.Data[j]
					h := xhat[r*d+j]
					x.G.Data[r*d+j] += is * (gg - sumG/float32(d) - h*sumGH/float32(d))
				}
			}
		})
	}
	return out
}

// Conv2D convolves x [N,C,H,W] with weights w [OutC, C*KH*KW] and bias
// b [OutC] under spec s.
func (t *Tape) Conv2D(x, w, b *V, s tensor.ConvSpec) *V {
	n, h, wd := x.X.Shape[0], x.X.Shape[2], x.X.Shape[3]
	y, cols := tensor.Conv2D(x.X, w.X, b.X, s)
	out := t.adopt(y)
	if t.grad() {
		t.record(func() {
			dx, dw, db := tensor.Conv2DBackward(out.G, cols, w.X, s, n, h, wd)
			x.G.AddInto(dx)
			w.G.AddInto(dw)
			b.G.AddInto(db)
		})
	}
	return out
}

// UpsampleNearest2x doubles the spatial dims of x [N,C,H,W] by
// nearest-neighbor replication.
func (t *Tape) UpsampleNearest2x(x *V) *V {
	n, c, h, w := x.X.Shape[0], x.X.Shape[1], x.X.Shape[2], x.X.Shape[3]
	out := t.alloc(n, c, 2*h, 2*w)
	for i := 0; i < n*c; i++ {
		src := x.X.Data[i*h*w:]
		dst := out.X.Data[i*4*h*w:]
		for y := 0; y < 2*h; y++ {
			for xx := 0; xx < 2*w; xx++ {
				dst[y*2*w+xx] = src[(y/2)*w+xx/2]
			}
		}
	}
	if t.grad() {
		t.record(func() {
			for i := 0; i < n*c; i++ {
				dg := out.G.Data[i*4*h*w:]
				sg := x.G.Data[i*h*w:]
				for y := 0; y < 2*h; y++ {
					for xx := 0; xx < 2*w; xx++ {
						sg[(y/2)*w+xx/2] += dg[y*2*w+xx]
					}
				}
			}
		})
	}
	return out
}

// Gather selects rows of table [K,D] by index, producing [N,D]
// (embedding lookup). Gradients scatter-add back into the table.
func (t *Tape) Gather(table *V, idx []int) *V {
	d := table.X.Shape[1]
	out := t.alloc(len(idx), d)
	for r, id := range idx {
		copy(out.X.Data[r*d:(r+1)*d], table.X.Data[id*d:(id+1)*d])
	}
	if t.grad() {
		// Capture a copy: callers may reuse their index slice.
		//tracelint:allow hotalloc — gradient tapes only: guarded by t.grad(), never built on a no-grad sampler tape
		ids := append([]int(nil), idx...)
		//tracelint:allow hotalloc — gradient tapes only: guarded by t.grad(), never built on a no-grad sampler tape
		t.record(func() {
			for r, id := range ids {
				dst := table.G.Data[id*d : (id+1)*d]
				src := out.G.Data[r*d : (r+1)*d]
				for j := range dst {
					dst[j] += src[j]
				}
			}
		})
	}
	return out
}

// Mean reduces to a scalar mean.
func (t *Tape) Mean(a *V) *V {
	out := t.alloc(1)
	var sum float64
	for _, v := range a.X.Data {
		sum += float64(v)
	}
	n := float32(len(a.X.Data))
	out.X.Data[0] = float32(sum) / n
	if t.grad() {
		t.record(func() {
			g := out.G.Data[0] / n
			for i := range a.G.Data {
				a.G.Data[i] += g
			}
		})
	}
	return out
}

// MSE returns mean squared error between pred and target (target is a
// constant — no gradient flows into it).
func (t *Tape) MSE(pred *V, target *tensor.Tensor) *V {
	if !pred.X.SameShape(target) {
		panic("nn: MSE shape mismatch")
	}
	out := t.alloc(1)
	var sum float64
	for i, v := range pred.X.Data {
		d := float64(v - target.Data[i])
		sum += d * d
	}
	n := float32(len(pred.X.Data))
	out.X.Data[0] = float32(sum) / n
	if t.grad() {
		t.record(func() {
			g := out.G.Data[0] * 2 / n
			for i := range pred.G.Data {
				pred.G.Data[i] += g * (pred.X.Data[i] - target.Data[i])
			}
		})
	}
	return out
}

// BCEWithLogits returns the mean binary cross-entropy between logits
// and constant 0/1 targets, computed stably (GAN losses).
func (t *Tape) BCEWithLogits(logits *V, target *tensor.Tensor) *V {
	if !logits.X.SameShape(target) {
		panic("nn: BCE shape mismatch")
	}
	out := t.alloc(1)
	var sum float64
	for i, z := range logits.X.Data {
		zf, tf := float64(z), float64(target.Data[i])
		// log(1+exp(-|z|)) + max(z,0) - z*t
		sum += math.Log1p(math.Exp(-math.Abs(zf))) + math.Max(zf, 0) - zf*tf
	}
	n := float32(len(logits.X.Data))
	out.X.Data[0] = float32(sum) / n
	if t.grad() {
		t.record(func() {
			g := out.G.Data[0] / n
			for i, z := range logits.X.Data {
				s := float32(1 / (1 + math.Exp(-float64(z))))
				logits.G.Data[i] += g * (s - target.Data[i])
			}
		})
	}
	return out
}

// MulScalarBroadcast multiplies each row of a [N,D] by the per-sample
// scalar s [N,1] (a learned, time-dependent gate).
func (t *Tape) MulScalarBroadcast(a, s *V) *V {
	n, d := a.X.Shape[0], a.X.Shape[1]
	if s.X.Shape[0] != n || s.X.Shape[1] != 1 {
		panic("nn: MulScalarBroadcast needs s of shape [N,1]")
	}
	out := t.alloc(n, d)
	for r := 0; r < n; r++ {
		sv := s.X.Data[r]
		row := a.X.Data[r*d : (r+1)*d]
		dst := out.X.Data[r*d : (r+1)*d]
		for j, v := range row {
			dst[j] = v * sv
		}
	}
	if t.grad() {
		//tracelint:allow hotalloc — gradient tapes only: guarded by t.grad(), never built on a no-grad sampler tape
		t.record(func() {
			for r := 0; r < n; r++ {
				sv := s.X.Data[r]
				var acc float32
				for j := 0; j < d; j++ {
					g := out.G.Data[r*d+j]
					a.G.Data[r*d+j] += g * sv
					acc += g * a.X.Data[r*d+j]
				}
				s.G.Data[r] += acc
			}
		})
	}
	return out
}

// MulChannelBroadcast multiplies a [N,C,H,W] by per-sample channel
// gains b [N,C].
func (t *Tape) MulChannelBroadcast(a, b *V) *V {
	n, c := a.X.Shape[0], a.X.Shape[1]
	spatial := a.X.Shape[2] * a.X.Shape[3]
	if b.X.Shape[0] != n || b.X.Shape[1] != c {
		panic("nn: MulChannelBroadcast shape mismatch")
	}
	out := t.alloc(a.X.Shape...)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			bv := b.X.Data[i*c+ch]
			src := a.X.Data[(i*c+ch)*spatial : (i*c+ch+1)*spatial]
			dst := out.X.Data[(i*c+ch)*spatial : (i*c+ch+1)*spatial]
			for j, v := range src {
				dst[j] = v * bv
			}
		}
	}
	if t.grad() {
		t.record(func() {
			for i := 0; i < n; i++ {
				for ch := 0; ch < c; ch++ {
					bv := b.X.Data[i*c+ch]
					var acc float32
					for j := 0; j < spatial; j++ {
						g := out.G.Data[(i*c+ch)*spatial+j]
						a.G.Data[(i*c+ch)*spatial+j] += g * bv
						acc += g * a.X.Data[(i*c+ch)*spatial+j]
					}
					b.G.Data[i*c+ch] += acc
				}
			}
		})
	}
	return out
}

// Transpose2D returns aᵀ for a [m,n].
func (t *Tape) Transpose2D(a *V) *V {
	m, n := a.X.Shape[0], a.X.Shape[1]
	out := t.alloc(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.X.Data[j*m+i] = a.X.Data[i*n+j]
		}
	}
	if t.grad() {
		t.record(func() {
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					a.G.Data[i*n+j] += out.G.Data[j*m+i]
				}
			}
		})
	}
	return out
}

// SoftmaxRows applies a numerically stable softmax along each row of
// a [m,n].
func (t *Tape) SoftmaxRows(a *V) *V {
	m, n := a.X.Shape[0], a.X.Shape[1]
	out := t.alloc(m, n)
	for i := 0; i < m; i++ {
		row := a.X.Data[i*n : (i+1)*n]
		dst := out.X.Data[i*n : (i+1)*n]
		mx := row[0]
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - mx))
			dst[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range dst {
			dst[j] *= inv
		}
	}
	if t.grad() {
		t.record(func() {
			for i := 0; i < m; i++ {
				y := out.X.Data[i*n : (i+1)*n]
				gy := out.G.Data[i*n : (i+1)*n]
				var dot float32
				for j := range y {
					dot += y[j] * gy[j]
				}
				ga := a.G.Data[i*n : (i+1)*n]
				for j := range y {
					ga[j] += y[j] * (gy[j] - dot)
				}
			}
		})
	}
	return out
}

// SliceRows returns rows [lo, hi) of a 2-D value as a view-like node
// (gradients scatter back into the source rows).
func (t *Tape) SliceRows(a *V, lo, hi int) *V {
	n, d := a.X.Shape[0], a.X.Shape[1]
	if lo < 0 || hi > n || lo >= hi {
		panic("nn: SliceRows bounds")
	}
	out := t.alloc(hi-lo, d)
	copy(out.X.Data, a.X.Data[lo*d:hi*d])
	if t.grad() {
		t.record(func() {
			dst := a.G.Data[lo*d : hi*d]
			for i, g := range out.G.Data {
				dst[i] += g
			}
		})
	}
	return out
}
