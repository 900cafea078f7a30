package nn

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"trafficdiff/internal/stats"
	"trafficdiff/internal/tensor"
)

// withGrads gives each of ps a zeroed gradient buffer, as NewAdam does
// for the parameters it trains: a test that reads G after Backward
// without an optimizer asks for the buffers with this.
func withGrads(ps ...*V) []*V {
	for _, p := range ps {
		p.G = tensor.New(p.X.Shape...)
	}
	return ps
}

// checkGrad verifies analytic gradients of forward's scalar output
// with respect to every parameter in params via central differences.
func checkGrad(t *testing.T, params []*V, forward func(tp *Tape) *V) {
	t.Helper()
	withGrads(params...)
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

// linearBackwardLoops is the reference for Linear's weight and input
// gradients: the A·B and Aᵀ·B loops the backward once ran on. Each
// element sums its products, each rounded, over p in ascending order
// from +0, skipping a term whose dy factor is exactly 0; the sum is then
// added to the gradient already there.
func linearBackwardLoops(xg, wg, x, w, dy []float32, n, in, out int) {
	if xg != nil {
		for i := 0; i < n; i++ {
			for j := 0; j < in; j++ {
				var s float32
				for p := 0; p < out; p++ {
					if dy[i*out+p] == 0 {
						continue
					}
					s += float32(dy[i*out+p] * w[p*in+j])
				}
				xg[i*in+j] += s
			}
		}
	}
	if wg != nil {
		for o := 0; o < out; o++ {
			for j := 0; j < in; j++ {
				var s float32
				for p := 0; p < n; p++ {
					if dy[p*out+o] == 0 {
						continue
					}
					s += float32(dy[p*out+o] * x[p*in+j])
				}
				wg[o*in+j] += s
			}
		}
	}
}

// TestLinearBackwardMatchesLoops holds Linear's x.G and w.G to
// linearBackwardLoops bit for bit: rows 1–40, widths that are not
// multiples of eight (the last large enough to shard), dy with exact
// zeros and negative values, gradients that already hold values, either
// gradient buffer absent, at GOMAXPROCS 1 and 2. One reusing tape runs
// every case, its recycled buffers filled with NaN in between, so a
// stale scratch buffer would show.
func TestLinearBackwardMatchesLoops(t *testing.T) {
	nan := float32(math.NaN())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			r := stats.NewRNG(11)
			tp := NewTape()
			tp.EnableReuse()
			for n := 1; n <= 40; n++ {
				for _, wd := range []struct{ in, out int }{{3, 5}, {13, 9}, {67, 33}, {259, 71}} {
					for _, grads := range []string{"both", "nil x.G", "nil w.G"} {
						x := NewV(tensor.New(n, wd.in).Randn(r, 1))
						w := NewV(tensor.New(wd.out, wd.in).Randn(r, 1))
						if grads != "nil x.G" {
							x.G = tensor.New(n, wd.in).Randn(r, 1)
						}
						if grads != "nil w.G" {
							w.G = tensor.New(wd.out, wd.in).Randn(r, 1)
						}
						dy := tensor.New(n, wd.out).Randn(r, 1)
						for i := range dy.Data {
							if r.Bool(0.2) {
								dy.Data[i] = 0
							}
						}
						var wantX, wantW []float32
						if x.G != nil {
							wantX = append([]float32(nil), x.G.Data...)
						}
						if w.G != nil {
							wantW = append([]float32(nil), w.G.Data...)
						}
						linearBackwardLoops(wantX, wantW, x.X.Data, w.X.Data, dy.Data, n, wd.in, wd.out)

						out := tp.Linear(x, w, nil)
						copy(out.G.Data, dy.Data)
						tp.steps[0]()
						tp.Reset()
						label := fmt.Sprintf("%d rows, in %d, out %d, %s", n, wd.in, wd.out, grads)
						if x.G != nil {
							if i, ok := sameBits(x.G.Data, wantX); !ok {
								t.Fatalf("%s: x.G element %d = %v, want %v", label, i, x.G.Data[i], wantX[i])
							}
						}
						if w.G != nil {
							if i, ok := sameBits(w.G.Data, wantW); !ok {
								t.Fatalf("%s: w.G element %d = %v, want %v", label, i, w.G.Data[i], wantW[i])
							}
						}
						tp.Recycle()
						for _, bs := range tp.sfree {
							for _, b := range bs {
								for i := range b {
									b[i] = nan
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestHoldFrozenTransposesOnce runs Linear's backward over a frozen
// and a trained weight for three steps on a tape that holds frozen
// weights: x.G and w.G match the A·B / Aᵀ·B loops bit for bit at every
// step, the frozen weight is transposed once and kept, and the trained
// one never is (its transpose changes with it).
func TestHoldFrozenTransposesOnce(t *testing.T) {
	r := stats.NewRNG(12)
	const n, in, out = 7, 67, 33
	tp := NewTape()
	tp.EnableReuse()
	tp.HoldFrozen()
	frozen := NewV(tensor.New(out, in).Randn(r, 1))
	trained := NewV(tensor.New(out, in).Randn(r, 1))
	trained.G = tensor.New(out, in)
	for step := 0; step < 3; step++ {
		for _, w := range []*V{frozen, trained} {
			x := NewV(tensor.New(n, in).Randn(r, 1))
			x.G = tensor.New(n, in).Randn(r, 1)
			dy := tensor.New(n, out).Randn(r, 1)
			wantX := append([]float32(nil), x.G.Data...)
			var wantW []float32
			if w.G != nil {
				wantW = append([]float32(nil), w.G.Data...)
			}
			linearBackwardLoops(wantX, wantW, x.X.Data, w.X.Data, dy.Data, n, in, out)
			y := tp.Linear(x, w, nil)
			copy(y.G.Data, dy.Data)
			tp.steps[0]()
			tp.Reset()
			if i, ok := sameBits(x.G.Data, wantX); !ok {
				t.Fatalf("step %d, trained %v: x.G element %d = %v, want %v", step, w.G != nil, i, x.G.Data[i], wantX[i])
			}
			if w.G != nil {
				if i, ok := sameBits(w.G.Data, wantW); !ok {
					t.Fatalf("step %d: w.G element %d = %v, want %v", step, i, w.G.Data[i], wantW[i])
				}
			}
		}
		tp.Recycle()
		// The trained weight moves between steps, as an optimizer moves it.
		for i := range trained.X.Data {
			trained.X.Data[i] -= 0.01 * trained.G.Data[i]
		}
	}
	if _, ok := tp.frozenT[frozen.X]; !ok || len(tp.frozenT) != 1 {
		t.Errorf("tape holds %d transposes, want the frozen weight's alone", len(tp.frozenT))
	}
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

// TestNilGradOperandsSkipped: every op that takes a parameter operand
// leaves an operand without a gradient buffer without one after
// Backward, and gives every other operand exactly the gradient bits of
// a pass in which all operands have buffers — for each subset of
// operands left without.
func TestNilGradOperandsSkipped(t *testing.T) {
	type opCase struct {
		name   string
		shapes [][]int
		fwd    func(tp *Tape, o []*V) *V
	}
	cases := []opCase{
		{"linear", [][]int{{4, 6}, {5, 6}, {5}}, func(tp *Tape, o []*V) *V { return tp.Linear(o[0], o[1], o[2]) }},
		{"linear-nobias", [][]int{{4, 6}, {5, 6}}, func(tp *Tape, o []*V) *V { return tp.Linear(o[0], o[1], nil) }},
		{"layernorm", [][]int{{4, 6}, {6}, {6}}, func(tp *Tape, o []*V) *V { return tp.LayerNorm(o[0], o[1], o[2]) }},
		{"gather", [][]int{{5, 3}}, func(tp *Tape, o []*V) *V { return tp.Gather(o[0], []int{4, 0, 4, 2}) }},
		{"add", [][]int{{4, 3}, {4, 3}}, func(tp *Tape, o []*V) *V { return tp.Add(o[0], o[1]) }},
		{"addrepeat", [][]int{{6, 3}, {2, 3}}, func(tp *Tape, o []*V) *V { return tp.AddRepeat(o[0], o[1]) }},
		{"addscaled", [][]int{{4, 3}, {4, 3}}, func(tp *Tape, o []*V) *V { return tp.AddScaled(o[0], o[1], 0.37) }},
		{"mulscalar", [][]int{{4, 3}, {4, 1}}, func(tp *Tape, o []*V) *V { return tp.MulScalarBroadcast(o[0], o[1]) }},
	}
	for _, c := range cases {
		r := stats.NewRNG(31)
		ops := make([]*V, len(c.shapes))
		for i, sh := range c.shapes {
			ops[i] = NewV(tensor.New(sh...).Randn(r, 1))
		}
		// pass runs forward and backward with a buffer on the operands
		// whose bit is set in mask and returns every operand's gradient.
		pass := func(mask int) [][]float32 {
			for i, o := range ops {
				o.G = nil
				if mask&(1<<i) != 0 {
					withGrads(o)
				}
			}
			tp := NewTape()
			y := c.fwd(tp, ops)
			// A SiLU between op and loss makes the upstream gradient
			// differ per element.
			tp.Backward(tp.Mean(tp.SiLU(y)))
			got := make([][]float32, len(ops))
			for i, o := range ops {
				if o.G != nil {
					got[i] = append([]float32(nil), o.G.Data...)
				}
			}
			return got
		}
		all := 1<<len(ops) - 1
		want := pass(all)
		for mask := 0; mask < all; mask++ {
			got := pass(mask)
			for i := range ops {
				switch {
				case mask&(1<<i) == 0 && got[i] != nil:
					t.Errorf("%s mask %b: operand %d gained a gradient buffer", c.name, mask, i)
				case mask&(1<<i) != 0:
					if k, ok := sameBits(got[i], want[i]); !ok {
						t.Errorf("%s mask %b: operand %d gradient differs at element %d", c.name, mask, i, k)
					}
				}
			}
		}
	}
}

// TestAdamOwnsGradients: a parameter has no gradient buffer until an
// optimizer trains it, and none after the optimizer is released.
func TestAdamOwnsGradients(t *testing.T) {
	l := NewLinear(stats.NewRNG(2), 3, 2)
	for _, p := range l.Params() {
		if p.G != nil {
			t.Fatal("a new parameter has a gradient buffer")
		}
	}
	opt := NewAdam(0.1, l.Params())
	for _, p := range l.Params() {
		if p.G == nil || !p.G.SameShape(p.X) {
			t.Fatal("NewAdam did not give its parameter a gradient buffer")
		}
	}
	tp := NewTape()
	tp.Backward(tp.Mean(l.Apply(tp, NewV(tensor.New(4, 3).Randn(stats.NewRNG(3), 1)))))
	if opt.GradNorm() == 0 {
		t.Fatal("no gradient reached the trained parameters")
	}
	opt.Step()
	opt.Release()
	for _, p := range l.Params() {
		if p.G != nil {
			t.Fatal("Release left a gradient buffer")
		}
	}
}
