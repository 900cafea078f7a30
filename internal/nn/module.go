package nn

import (
	"math"

	"trafficdiff/internal/stats"
	"trafficdiff/internal/tensor"
)

// LinearLayer bundles a Linear op's weight and bias parameters.
type LinearLayer struct {
	W, B *V
}

// NewLinear allocates a layer with Kaiming-uniform-style init. A nil r
// skips the random draw and leaves W zero, for a caller about to load
// the weights (here and in NewEmbedding).
func NewLinear(r *stats.RNG, in, out int) *LinearLayer {
	l := &LinearLayer{W: Param(out, in), B: Param(out)}
	initNormal(l.W, r, math.Sqrt(2.0/float64(in)))
	return l
}

// initNormal fills p with N(0, std) noise from r, or leaves it zero
// when r is nil.
func initNormal(p *V, r *stats.RNG, std float64) {
	if r != nil {
		p.X.Randn(r, std)
	}
}

// Apply runs the layer on x [N,in].
func (l *LinearLayer) Apply(t *Tape, x *V) *V {
	return t.Linear(x, l.W, l.B)
}

// Params returns the layer's trainable parameters.
func (l *LinearLayer) Params() []*V { return []*V{l.W, l.B} }

// NormLayer bundles LayerNorm's gamma and beta.
type NormLayer struct {
	Gamma, Beta *V
}

// NewNorm allocates a norm layer (gamma=1, beta=0).
func NewNorm(d int) *NormLayer {
	n := &NormLayer{Gamma: Param(d), Beta: Param(d)}
	n.Gamma.X.Fill(1)
	return n
}

// Apply normalizes x [N,D].
func (n *NormLayer) Apply(t *Tape, x *V) *V { return t.LayerNorm(x, n.Gamma, n.Beta) }

// Params returns gamma and beta.
func (n *NormLayer) Params() []*V { return []*V{n.Gamma, n.Beta} }

// EmbeddingLayer is a learned lookup table [K,D].
type EmbeddingLayer struct {
	Table *V
}

// NewEmbedding allocates a K x D table with N(0, 0.02) init (the
// scale Stable Diffusion uses for token embeddings).
func NewEmbedding(r *stats.RNG, k, d int) *EmbeddingLayer {
	e := &EmbeddingLayer{Table: Param(k, d)}
	initNormal(e.Table, r, 0.02)
	return e
}

// Apply looks up rows by index.
func (e *EmbeddingLayer) Apply(t *Tape, idx []int) *V { return t.Gather(e.Table, idx) }

// Params returns the table.
func (e *EmbeddingLayer) Params() []*V { return []*V{e.Table} }

// SinusoidalEmbedding returns the standard transformer/DDPM timestep
// features [N, dim]: sin/cos at geometrically spaced frequencies. It
// is a fixed encoding, not a parameter.
func SinusoidalEmbedding(steps []int, dim int) *tensor.Tensor {
	out := tensor.New(len(steps), dim)
	sinusoidalInto(out.Data, steps, dim)
	return out
}

// sinusoidalInto fills data (len(steps)*dim, fully overwritten) with
// the sinusoidal features SinusoidalEmbedding describes, row-sharded
// like the other row-wise ops (ops.go) when the batch is large.
func sinusoidalInto(data []float32, steps []int, dim int) {
	if tensor.ParallelOK(len(steps) * dim * workSinCos) {
		//tracelint:allow hotalloc — parallel path only, behind the size check
		tensor.Shard(len(steps), func(lo, hi int) { sinusoidalRows(data, steps, dim, lo, hi) })
		return
	}
	sinusoidalRows(data, steps, dim, 0, len(steps))
}

// sinusoidalRows fills rows [lo, hi). A frequency depends on the column
// alone, so the column loop is the outer one and each frequency is
// computed once per call instead of once per row.
func sinusoidalRows(data []float32, steps []int, dim, lo, hi int) {
	half := dim / 2
	if dim%2 == 1 {
		for r := lo; r < hi; r++ {
			data[r*dim+dim-1] = 0 // an odd width's last column carries no feature
		}
	}
	for j := 0; j < half; j++ {
		freq := math.Exp(-math.Log(10000) * float64(j) / float64(half))
		for r := lo; r < hi; r++ {
			angle := float64(steps[r]) * freq
			data[r*dim+j] = float32(math.Sin(angle))
			data[r*dim+half+j] = float32(math.Cos(angle))
		}
	}
}

// TimeEmbed is SinusoidalEmbedding as a tape value: the encoding is
// written into an arena-recycled buffer, so samplers that embed the
// same batch shape every timestep stop allocating for it. The node is
// a constant without a gradient buffer — no gradient flows into it.
func (t *Tape) TimeEmbed(steps []int, dim int) *V {
	v := t.constant(len(steps), dim)
	sinusoidalInto(v.X.Data, steps, dim)
	return v
}
