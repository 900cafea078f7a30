package nn

import (
	"fmt"
	"math"

	"trafficdiff/internal/tensor"
)

// Adam implements the Adam optimizer with optional gradient clipping
// by global norm.
type Adam struct {
	LR           float64
	Beta1, Beta2 float64
	Eps          float64
	// ClipNorm clips the global gradient norm when > 0.
	ClipNorm float64

	params []*V
	m, v   [][]float32
	step   int
}

// NewAdam creates an optimizer over params with standard defaults
// (beta1=0.9, beta2=0.999, eps=1e-8), and gives each parameter that has
// none a zeroed gradient buffer to accumulate into: parameters carry a
// gradient only while an optimizer trains them (see Release).
func NewAdam(lr float64, params []*V) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: params}
	for _, p := range params {
		if p.G == nil {
			p.G = tensor.New(p.X.Shape...)
		}
		a.m = append(a.m, make([]float32, len(p.X.Data)))
		a.v = append(a.v, make([]float32, len(p.X.Data)))
	}
	return a
}

// Release drops the gradient buffers of the optimizer's parameters
// once training is over, so a trained model holds its weights alone;
// backward passes through it then skip those parameters. The optimizer
// must not Step afterwards.
func (a *Adam) Release() {
	for _, p := range a.params {
		p.G = nil
	}
}

// Params returns the parameter set being optimized.
func (a *Adam) Params() []*V { return a.params }

// GradNorm returns the current global gradient L2 norm.
func (a *Adam) GradNorm() float64 {
	var sq float64
	for _, p := range a.params {
		for _, g := range p.G.Data {
			sq += float64(float64(g) * float64(g))
		}
	}
	return math.Sqrt(sq)
}

// Step applies one update from the accumulated gradients and zeroes
// them.
func (a *Adam) Step() {
	a.step++
	scale := 1.0
	if a.ClipNorm > 0 {
		if norm := a.GradNorm(); norm > a.ClipNorm {
			scale = a.ClipNorm / (norm + 1e-12)
		}
	}
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for i, p := range a.params {
		m, v := a.m[i], a.v[i]
		for j, g64 := range p.G.Data {
			g := float64(g64) * scale
			m[j] = float32(float64(a.Beta1*float64(m[j])) + float64((1-a.Beta1)*g))
			v[j] = float32(float64(a.Beta2*float64(v[j])) + float64((1-a.Beta2)*g*g))
			mh := float64(m[j]) / bc1
			vh := float64(v[j]) / bc2
			p.X.Data[j] -= float32(a.LR * mh / (math.Sqrt(vh) + a.Eps))
		}
		p.ZeroGrad()
	}
}

// State exposes the optimizer's serializable state: the update count
// and the first/second moment estimates, one slice per parameter in
// Params order. The returned slices alias the optimizer's own storage;
// callers must treat them as read-only (checkpoint writers encode them
// synchronously, so no copy is needed).
func (a *Adam) State() (step int, m, v [][]float32) { return a.step, a.m, a.v }

// SetState restores state captured by State (possibly in another
// process) into this optimizer. The moment shapes must match the
// parameter set exactly; values are copied in.
func (a *Adam) SetState(step int, m, v [][]float32) error {
	if step < 0 {
		return fmt.Errorf("nn: negative Adam step %d", step)
	}
	if len(m) != len(a.params) || len(v) != len(a.params) {
		return fmt.Errorf("nn: Adam state has %d/%d moment slices, optimizer has %d params", len(m), len(v), len(a.params))
	}
	for i, p := range a.params {
		if len(m[i]) != len(p.X.Data) || len(v[i]) != len(p.X.Data) {
			return fmt.Errorf("nn: Adam state param %d has %d/%d moments, want %d", i, len(m[i]), len(v[i]), len(p.X.Data))
		}
	}
	a.step = step
	for i := range a.params {
		copy(a.m[i], m[i])
		copy(a.v[i], v[i])
	}
	return nil
}
