// Package gan implements the NetShare/DoppelGANger-style baseline the
// paper compares against: an adversarially trained generator over
// NetFlow-like aggregate feature vectors.
//
// Faithful to the baseline's architecture — and to the paper's
// criticism of it (§2.3) — the class label is generated as just
// another feature (a score block appended to the feature vector)
// rather than conditioning the generator, so per-class fidelity is not
// optimized and real-world class imbalance tends to be amplified
// (Figure 1). The package also supports the paper's "per-class GAN"
// supplemental experiment by training one model per class.
package gan

import (
	"fmt"
	"math"

	"trafficdiff/internal/nn"
	"trafficdiff/internal/stats"
	"trafficdiff/internal/tensor"
)

// Config controls GAN training.
type Config struct {
	ZDim   int // latent size
	Hidden int // MLP width
	Steps  int // adversarial steps (one D + one G update each)
	Batch  int
	LRG    float64
	LRD    float64
	Seed   uint64
}

// DefaultConfig returns the settings the experiments use.
func DefaultConfig() Config {
	return Config{ZDim: 16, Hidden: 64, Steps: 400, Batch: 32, LRG: 1e-3, LRD: 1e-3, Seed: 1}
}

// Model is a trained GAN over feature vectors with K class-score
// outputs appended.
type Model struct {
	F, K int
	cfg  Config

	g1, g2, g3 *nn.LinearLayer // generator
	d1, d2, d3 *nn.LinearLayer // discriminator

	mean, std []float64 // per-feature normalization

	// DLosses and GLosses record the training curves.
	DLosses, GLosses []float64
}

// Train fits a GAN on feature rows with integer labels in [0, k).
func Train(features [][]float64, labels []int, k int, cfg Config) (*Model, error) {
	if len(features) == 0 {
		return nil, fmt.Errorf("gan: empty training set")
	}
	if len(features) != len(labels) {
		return nil, fmt.Errorf("gan: %d features, %d labels", len(features), len(labels))
	}
	if cfg.Batch <= 0 || cfg.Steps <= 0 || cfg.ZDim <= 0 || cfg.Hidden <= 0 {
		return nil, fmt.Errorf("gan: invalid config %+v", cfg)
	}
	f := len(features[0])
	for i, row := range features {
		if len(row) != f {
			return nil, fmt.Errorf("gan: row %d has %d features, want %d", i, len(row), f)
		}
	}
	for i, l := range labels {
		if l < 0 || l >= k {
			return nil, fmt.Errorf("gan: label %d at row %d out of range [0,%d)", l, i, k)
		}
	}
	r := stats.NewRNG(cfg.Seed)
	m := &Model{
		F: f, K: k, cfg: cfg,
		g1: nn.NewLinear(r, cfg.ZDim, cfg.Hidden),
		g2: nn.NewLinear(r, cfg.Hidden, cfg.Hidden),
		g3: nn.NewLinear(r, cfg.Hidden, f+k),
		d1: nn.NewLinear(r, f+k, cfg.Hidden),
		d2: nn.NewLinear(r, cfg.Hidden, cfg.Hidden),
		d3: nn.NewLinear(r, cfg.Hidden, 1),
	}
	m.fitNormalization(features)

	// Normalized real rows with one-hot class blocks.
	real := make([][]float32, len(features))
	for i, row := range features {
		v := make([]float32, f+k)
		for j, x := range row {
			v[j] = float32((x - m.mean[j]) / m.std[j])
		}
		v[f+labels[i]] = 1
		real[i] = v
	}

	gParams := collect(m.g1, m.g2, m.g3)
	dParams := collect(m.d1, m.d2, m.d3)
	optG := nn.NewAdam(cfg.LRG, gParams)
	optG.ClipNorm = 5
	optD := nn.NewAdam(cfg.LRD, dParams)
	optD.ClipNorm = 5

	n := cfg.Batch
	ones := tensor.New(n, 1)
	ones.Fill(1)
	zeros := tensor.New(n, 1)
	dGrads := make([]*tensor.Tensor, len(dParams))

	for step := 0; step < cfg.Steps; step++ {
		// ---- Discriminator update (generator detached). ----
		fake := m.generateRaw(r, n) // constant w.r.t. this tape
		realBatch := tensor.New(n, f+k)
		for i := 0; i < n; i++ {
			copy(realBatch.Data[i*(f+k):(i+1)*(f+k)], real[r.Intn(len(real))])
		}
		tp := nn.NewTape()
		lossD := tp.Scale(tp.Add(
			tp.BCEWithLogits(m.discriminate(tp, nn.NewV(realBatch)), ones.Reshape(n, 1)),
			tp.BCEWithLogits(m.discriminate(tp, nn.NewV(fake)), zeros.Reshape(n, 1)),
		), 0.5)
		dv := float64(lossD.X.Data[0])
		if math.IsNaN(dv) || math.IsInf(dv, 0) {
			return nil, fmt.Errorf("gan: non-finite D loss at step %d", step)
		}
		m.DLosses = append(m.DLosses, dv)
		tp.Backward(lossD)
		optD.Step()

		// ---- Generator update (non-saturating loss). ----
		// D is frozen for the G step: its parameters give up their
		// gradient buffers until the step is over, so the backward pass
		// through D computes only the input gradients G needs and none
		// of D's weight gradients.
		for i, p := range dParams {
			dGrads[i], p.G = p.G, nil
		}
		z := tensor.New(n, cfg.ZDim).Randn(r, 1)
		tp2 := nn.NewTape()
		out := m.generate(tp2, nn.NewV(z))
		lossG := tp2.BCEWithLogits(m.discriminate(tp2, out), ones.Reshape(n, 1))
		gv := float64(lossG.X.Data[0])
		if math.IsNaN(gv) || math.IsInf(gv, 0) {
			return nil, fmt.Errorf("gan: non-finite G loss at step %d", step)
		}
		m.GLosses = append(m.GLosses, gv)
		tp2.Backward(lossG)
		for i, p := range dParams {
			p.G = dGrads[i]
		}
		optG.Step()
	}
	optG.Release()
	optD.Release()
	return m, nil
}

func collect(layers ...*nn.LinearLayer) []*nn.V {
	var ps []*nn.V
	for _, l := range layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

func (m *Model) fitNormalization(features [][]float64) {
	f := m.F
	m.mean = make([]float64, f)
	m.std = make([]float64, f)
	for j := 0; j < f; j++ {
		var sum float64
		for _, row := range features {
			sum += row[j]
		}
		m.mean[j] = sum / float64(len(features))
		var sq float64
		for _, row := range features {
			d := row[j] - m.mean[j]
			sq += float64(d * d)
		}
		m.std[j] = math.Sqrt(sq / float64(len(features)))
		if m.std[j] < 1e-9 {
			m.std[j] = 1
		}
	}
}

// generate runs the generator graph on z. The output head is bounded
// by 3·tanh so generated (normalized) features stay within ±3σ of the
// real data — the same bounded-output trick DoppelGANger-style
// generators use for stability.
func (m *Model) generate(tp *nn.Tape, z *nn.V) *nn.V {
	h := tp.LeakyReLU(m.g1.Apply(tp, z), 0.2)
	h = tp.LeakyReLU(m.g2.Apply(tp, h), 0.2)
	return tp.Scale(tp.Tanh(m.g3.Apply(tp, h)), 3)
}

// generateRaw produces a detached fake batch.
func (m *Model) generateRaw(r *stats.RNG, n int) *tensor.Tensor {
	z := tensor.New(n, m.cfg.ZDim).Randn(r, 1)
	tp := nn.NewTape()
	out := m.generate(tp, nn.NewV(z))
	tp.Reset()
	return out.X
}

// discriminate runs the discriminator graph on x.
func (m *Model) discriminate(tp *nn.Tape, x *nn.V) *nn.V {
	h := tp.LeakyReLU(m.d1.Apply(tp, x), 0.2)
	h = tp.LeakyReLU(m.d2.Apply(tp, h), 0.2)
	return m.d3.Apply(tp, h)
}

// Generate draws n synthetic rows: denormalized feature vectors and
// the label taken as the argmax of the generated class-score block —
// the "label is just another feature" behaviour under test.
func (m *Model) Generate(n int, seed uint64) (features [][]float64, labels []int) {
	r := stats.NewRNG(seed)
	raw := m.generateRaw(r, n)
	features = make([][]float64, n)
	labels = make([]int, n)
	width := m.F + m.K
	for i := 0; i < n; i++ {
		row := raw.Data[i*width : (i+1)*width]
		feat := make([]float64, m.F)
		for j := 0; j < m.F; j++ {
			feat[j] = float64(float64(row[j])*m.std[j]) + m.mean[j]
		}
		features[i] = feat
		best, bestV := 0, float32(math.Inf(-1))
		for c := 0; c < m.K; c++ {
			if row[m.F+c] > bestV {
				best, bestV = c, row[m.F+c]
			}
		}
		labels[i] = best
	}
	return features, labels
}
