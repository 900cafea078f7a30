package nn

import (
	"math"

	"trafficdiff/internal/tensor"
)

// The row-wise ops a denoiser forward runs between its GEMMs go through
// the kernels' dispatch (tensor.ParallelOK / tensor.Shard): every one
// computes an output element from the matching input elements (or an
// output row from its input row) alone, so cutting the range into
// chunks changes no byte — the argument that makes the sharded GEMMs
// bit-identical. The adds and scales run on tensor's vector kernels
// (tensor.Add, AddScaled, AddBias, ScaleRows). The work* constants are
// each op's cost per element in the units ParallelOK counts, sized so
// that an op shards where that pays on the reference host. Measured
// serial, ns per element at 64×192 / 128×2176: LayerNorm 2.0 / 1.7,
// SiLU 7.3 / 7.2; sharded over two workers the 128×2176 LayerNorm runs
// 480 → 290 µs, SiLU 2000 → 1190.
//
// workAdd: a vector add costs ≈ 0.14 ns per element at 32×2176 (a Go
// loop 0.29–0.45 ns). tensor.Add serial vs sharded over two workers,
// median of five runs, µs: 48 K elements 6.4 vs 7.6, 64 K 8.6 vs 8.3,
// 96 K 13.6 vs 10.8, 128 K 19.3 vs 15.5 — so an add shards from 64 K
// elements, workAdd 1.
const (
	workAdd    = 1
	workNorm   = 8
	workSiLU   = 32
	workSinCos = 64 // TimeEmbed: one math.Sin or math.Cos per element, ≈ 15 ns
)

// addBias adds bias [D] to each of the n rows of x [n,D] in place: the
// second half of Linear.
func addBias(x, bias []float32, n int) {
	d := len(bias)
	if tensor.ParallelOK(n * d * workAdd) {
		//tracelint:allow hotalloc — parallel path only, behind the size check
		tensor.Shard(n, func(lo, hi int) { tensor.AddBias(x[lo*d:hi*d], bias) })
		return
	}
	tensor.AddBias(x[:n*d], bias)
}

// AddScaled returns a + s·b for a constant s (same shapes) in one pass:
// the LoRA epilogue base + (α/r)·up. The product is rounded to float32
// before the add — float32(s·b) — so the result is, bit for bit, what
// Add(a, Scale(b, s)) stores and no platform fuses the pair.
func (t *Tape) AddScaled(a, b *V, s float32) *V {
	if !a.X.SameShape(b.X) {
		panic("nn: AddScaled shape mismatch")
	}
	out := t.alloc(a.X.Shape...)
	od, ad, bd := out.X.Data, a.X.Data, b.X.Data
	if tensor.ParallelOK(len(od) * workAdd) {
		//tracelint:allow hotalloc — parallel path only, behind the size check
		tensor.Shard(len(od), func(lo, hi int) { tensor.AddScaled(od[lo:hi], ad[lo:hi], bd[lo:hi], s) })
	} else {
		tensor.AddScaled(od, ad, bd, s)
	}
	if t.grad() {
		//tracelint:allow hotalloc — gradient tapes only: guarded by t.grad(), never built on a no-grad sampler tape
		t.record(func() {
			if a.G != nil {
				tensor.Add(a.G.Data, a.G.Data, out.G.Data)
			}
			if b.G == nil {
				return
			}
			for i, g := range out.G.Data {
				b.G.Data[i] += float32(s * g)
			}
		})
	}
	return out
}

// SiLU applies x*sigmoid(x) elementwise (the denoiser's activation).
// The sigmoid values are kept for the backward pass only on a
// gradient-recording tape.
func (t *Tape) SiLU(a *V) *V {
	out := t.alloc(a.X.Shape...)
	var sig []float32
	if t.grad() {
		sig = t.scratch(len(a.X.Data))
	}
	od, ad := out.X.Data, a.X.Data
	if tensor.ParallelOK(len(od) * workSiLU) {
		//tracelint:allow hotalloc — parallel path only, behind the size check
		tensor.Shard(len(od), func(lo, hi int) { siluRange(od, ad, sig, lo, hi) })
	} else {
		siluRange(od, ad, sig, 0, len(od))
	}
	if t.grad() {
		//tracelint:allow hotalloc — gradient tapes only: guarded by t.grad(), never built on a no-grad sampler tape
		t.record(func() {
			if a.G == nil {
				return
			}
			for i, g := range out.G.Data {
				s := sig[i]
				v := a.X.Data[i]
				a.G.Data[i] += float32(g * (s + float32(v*s*(1-s))))
			}
		})
	}
	return out
}

// siluRange writes dst[i] = x[i]·σ(x[i]) for i in [lo, hi) and, when
// sig is non-nil, σ(x[i]) beside it.
func siluRange(dst, x, sig []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		v := x[i]
		s := float32(1 / (1 + math.Exp(-float64(v))))
		if sig != nil {
			sig[i] = s
		}
		dst[i] = v * s
	}
}

// Tanh applies tanh elementwise.
func (t *Tape) Tanh(a *V) *V {
	out := t.alloc(a.X.Shape...)
	for i, v := range a.X.Data {
		out.X.Data[i] = float32(math.Tanh(float64(v)))
	}
	if t.grad() {
		t.record(func() {
			if a.G == nil {
				return
			}
			for i, g := range out.G.Data {
				y := out.X.Data[i]
				a.G.Data[i] += float32(g * (1 - float32(y*y)))
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
			if a.G == nil {
				return
			}
			for i, g := range out.G.Data {
				if a.X.Data[i] >= 0 {
					a.G.Data[i] += g
				} else {
					a.G.Data[i] += float32(alpha * g)
				}
			}
		})
	}
	return out
}

// LayerNorm normalizes each row of x [N,D] to zero mean / unit
// variance, then scales by gamma [D] and shifts by beta [D]. The
// normalized rows and inverse deviations are kept for the backward pass
// only on a gradient-recording tape.
func (t *Tape) LayerNorm(x, gamma, beta *V) *V {
	n, d := x.X.Shape[0], x.X.Shape[1]
	out := t.alloc(n, d)
	var xhat, invStd []float32
	if t.grad() {
		xhat = t.scratch(n * d)
		invStd = t.scratch(n)
	}
	od, xd, gd, bd := out.X.Data, x.X.Data, gamma.X.Data, beta.X.Data
	if tensor.ParallelOK(n * d * workNorm) {
		//tracelint:allow hotalloc — parallel path only, behind the size check
		tensor.Shard(n, func(lo, hi int) { layerNormRows(od, xd, gd, bd, xhat, invStd, d, lo, hi) })
	} else {
		layerNormRows(od, xd, gd, bd, xhat, invStd, d, 0, n)
	}
	if t.grad() {
		//tracelint:allow hotalloc — gradient tapes only: guarded by t.grad(), never built on a no-grad sampler tape
		t.record(func() {
			for r := 0; r < n; r++ {
				gRow := out.G.Data[r*d : (r+1)*d]
				hRow := xhat[r*d : (r+1)*d]
				if gamma.G != nil {
					for j, g := range gRow {
						gamma.G.Data[j] += float32(g * hRow[j])
					}
				}
				if beta.G != nil {
					for j, g := range gRow {
						beta.G.Data[j] += g
					}
				}
				if x.G == nil {
					continue
				}
				var sumG, sumGH float32
				for j, g := range gRow {
					gg := float32(g * gamma.X.Data[j])
					sumG += gg
					sumGH += float32(gg * hRow[j])
				}
				is := invStd[r]
				for j, g := range gRow {
					gg := float32(g * gamma.X.Data[j])
					h := hRow[j]
					x.G.Data[r*d+j] += float32(is * (gg - sumG/float32(d) - h*sumGH/float32(d)))
				}
			}
		})
	}
	return out
}

// layerNormRows normalizes rows [lo, hi) of x into out; xhat and invStd
// (both nil, or both whole-tensor buffers) receive the backward caches.
func layerNormRows(out, x, gamma, beta, xhat, invStd []float32, d, lo, hi int) {
	const eps = 1e-5
	gamma, beta = gamma[:d], beta[:d]
	for r := lo; r < hi; r++ {
		row := x[r*d : (r+1)*d]
		dst := out[r*d : (r+1)*d]
		var mean float64
		for _, v := range row {
			mean += float64(v)
		}
		mean /= float64(d)
		var varsum float64
		for _, v := range row {
			dv := float64(v) - mean
			varsum += float64(dv * dv)
		}
		is := float32(1 / math.Sqrt(varsum/float64(d)+eps))
		m := float32(mean)
		if xhat == nil {
			for j, v := range row {
				h := (v - m) * is
				dst[j] = float32(h*gamma[j]) + beta[j]
			}
			continue
		}
		invStd[r] = is
		hrow := xhat[r*d : (r+1)*d]
		for j, v := range row {
			h := (v - m) * is
			hrow[j] = h
			dst[j] = float32(h*gamma[j]) + beta[j]
		}
	}
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
			if table.G == nil {
				return
			}
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
			if a.G == nil {
				return
			}
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
		sum += float64(d * d)
	}
	n := float32(len(pred.X.Data))
	out.X.Data[0] = float32(sum) / n
	if t.grad() {
		t.record(func() {
			if pred.G == nil {
				return
			}
			g := out.G.Data[0] * 2 / n
			for i := range pred.G.Data {
				pred.G.Data[i] += float32(g * (pred.X.Data[i] - target.Data[i]))
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
		sum += math.Log1p(math.Exp(-math.Abs(zf))) + math.Max(zf, 0) - float64(zf*tf)
	}
	n := float32(len(logits.X.Data))
	out.X.Data[0] = float32(sum) / n
	if t.grad() {
		t.record(func() {
			if logits.G == nil {
				return
			}
			g := out.G.Data[0] / n
			for i, z := range logits.X.Data {
				s := float32(1 / (1 + math.Exp(-float64(z))))
				logits.G.Data[i] += float32(g * (s - target.Data[i]))
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
	od, ad, sd := out.X.Data, a.X.Data, s.X.Data
	if tensor.ParallelOK(n * d * workAdd) {
		//tracelint:allow hotalloc — parallel path only, behind the size check
		tensor.Shard(n, func(lo, hi int) { tensor.ScaleRows(od[lo*d:hi*d], ad[lo*d:hi*d], sd[lo:hi]) })
	} else {
		tensor.ScaleRows(od, ad, sd)
	}
	if t.grad() {
		//tracelint:allow hotalloc — gradient tapes only: guarded by t.grad(), never built on a no-grad sampler tape
		t.record(func() {
			for r := 0; r < n; r++ {
				gRow := out.G.Data[r*d : (r+1)*d]
				if a.G != nil {
					sv := s.X.Data[r]
					for j, g := range gRow {
						a.G.Data[r*d+j] += float32(g * sv)
					}
				}
				if s.G != nil {
					var acc float32
					for j, g := range gRow {
						acc += float32(g * a.X.Data[r*d+j])
					}
					s.G.Data[r] += acc
				}
			}
		})
	}
	return out
}
