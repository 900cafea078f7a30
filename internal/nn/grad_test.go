package nn

import (
	"math"
	"testing"

	"trafficdiff/internal/stats"
	"trafficdiff/internal/tensor"
)

// checkGrad verifies analytic gradients of forward's scalar output
// with respect to every parameter in params via central differences.
func checkGrad(t *testing.T, params []*V, forward func(tp *Tape) *V) {
	t.Helper()
	tp := NewTape()
	loss := forward(tp)
	tp.Backward(loss)
	analytic := make([][]float32, len(params))
	for i, p := range params {
		analytic[i] = append([]float32(nil), p.G.Data...)
		p.ZeroGrad()
	}

	const eps = 1e-2
	for pi, p := range params {
		for j := range p.X.Data {
			orig := p.X.Data[j]
			p.X.Data[j] = orig + eps
			tp2 := NewTape()
			up := float64(forward(tp2).X.Data[0])
			tp2.Reset()
			p.X.Data[j] = orig - eps
			tp3 := NewTape()
			down := float64(forward(tp3).X.Data[0])
			tp3.Reset()
			p.X.Data[j] = orig
			num := (up - down) / (2 * eps)
			got := float64(analytic[pi][j])
			tol := 2e-2 * math.Max(1, math.Abs(num))
			if math.Abs(num-got) > tol {
				t.Fatalf("param %d elem %d: numeric %v vs analytic %v", pi, j, num, got)
			}
		}
	}
}

func TestGradAddScale(t *testing.T) {
	r := stats.NewRNG(1)
	a := NewV(tensor.New(2, 3).Randn(r, 1))
	b := NewV(tensor.New(2, 3).Randn(r, 1))
	checkGrad(t, []*V{a, b}, func(tp *Tape) *V {
		s := tp.Add(a, b)
		return tp.Mean(tp.Add(tp.Scale(s, 1.7), a))
	})
}

func TestGradLinear(t *testing.T) {
	r := stats.NewRNG(3)
	x := NewV(tensor.New(2, 5).Randn(r, 1))
	w := NewV(tensor.New(3, 5).Randn(r, 1))
	b := NewV(tensor.New(3).Randn(r, 1))
	target := tensor.New(2, 3).Randn(r, 1)
	checkGrad(t, []*V{x, w, b}, func(tp *Tape) *V {
		return tp.MSE(tp.Linear(x, w, b), target)
	})
}

func TestGradActivations(t *testing.T) {
	r := stats.NewRNG(4)
	for name, act := range map[string]func(tp *Tape, v *V) *V{
		"silu":  func(tp *Tape, v *V) *V { return tp.SiLU(v) },
		"tanh":  func(tp *Tape, v *V) *V { return tp.Tanh(v) },
		"lrelu": func(tp *Tape, v *V) *V { return tp.LeakyReLU(v, 0.2) },
	} {
		x := NewV(tensor.New(2, 4).Randn(r, 1))
		// Shift away from the ReLU kink to keep numeric gradients clean.
		for i := range x.X.Data {
			if v := x.X.Data[i]; v > -0.05 && v < 0.05 {
				x.X.Data[i] = 0.3
			}
		}
		t.Run(name, func(t *testing.T) {
			checkGrad(t, []*V{x}, func(tp *Tape) *V { return tp.Mean(act(tp, x)) })
		})
	}
}

func TestGradLayerNorm(t *testing.T) {
	r := stats.NewRNG(5)
	x := NewV(tensor.New(3, 6).Randn(r, 1))
	gamma := NewV(tensor.New(6).Randn(r, 0.5))
	for i := range gamma.X.Data {
		gamma.X.Data[i] += 1
	}
	beta := NewV(tensor.New(6).Randn(r, 0.5))
	target := tensor.New(3, 6).Randn(r, 1)
	checkGrad(t, []*V{x, gamma, beta}, func(tp *Tape) *V {
		return tp.MSE(tp.LayerNorm(x, gamma, beta), target)
	})
}

func TestGradGather(t *testing.T) {
	r := stats.NewRNG(9)
	table := NewV(tensor.New(5, 4).Randn(r, 1))
	target := tensor.New(3, 4).Randn(r, 1)
	checkGrad(t, []*V{table}, func(tp *Tape) *V {
		return tp.MSE(tp.Gather(table, []int{1, 4, 1}), target)
	})
}

func TestGradMulScalarBroadcast(t *testing.T) {
	r := stats.NewRNG(10)
	a := NewV(tensor.New(3, 4).Randn(r, 1))
	s := NewV(tensor.New(3, 1).Randn(r, 1))
	target := tensor.New(3, 4).Randn(r, 1)
	checkGrad(t, []*V{a, s}, func(tp *Tape) *V {
		return tp.MSE(tp.MulScalarBroadcast(a, s), target)
	})
}

func TestGradAddRepeat(t *testing.T) {
	r := stats.NewRNG(11)
	a := NewV(tensor.New(6, 3).Randn(r, 1))
	b := NewV(tensor.New(2, 3).Randn(r, 1))
	target := tensor.New(6, 3).Randn(r, 1)
	checkGrad(t, []*V{a, b}, func(tp *Tape) *V {
		return tp.MSE(tp.AddRepeat(a, b), target)
	})
}

func TestGradBCEWithLogits(t *testing.T) {
	r := stats.NewRNG(12)
	logits := NewV(tensor.New(4, 1).Randn(r, 1))
	target := tensor.New(4, 1)
	target.Data[0], target.Data[2] = 1, 1
	checkGrad(t, []*V{logits}, func(tp *Tape) *V {
		return tp.BCEWithLogits(logits, target)
	})
}

func TestGradReshapeFlows(t *testing.T) {
	r := stats.NewRNG(13)
	x := NewV(tensor.New(2, 6).Randn(r, 1))
	target := tensor.New(3, 4).Randn(r, 1)
	checkGrad(t, []*V{x}, func(tp *Tape) *V {
		return tp.MSE(tp.Reshape(x, 3, 4), target)
	})
}
