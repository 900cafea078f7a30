package nn

import (
	"math"
	"testing"

	"trafficdiff/internal/stats"
	"trafficdiff/internal/tensor"
)

func TestBackwardRequiresScalar(t *testing.T) {
	tp := NewTape()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-scalar loss")
		}
	}()
	tp.Backward(NewV(tensor.New(2)))
}

func TestTapeResetDropsSteps(t *testing.T) {
	tp := NewTape()
	a := NewV(tensor.FromSlice([]float32{1, 2}, 2))
	b := NewV(tensor.FromSlice([]float32{3, 4}, 2))
	_ = tp.Add(a, b)
	tp.Reset()
	if len(tp.steps) != 0 {
		t.Fatal("reset did not clear steps")
	}
}

func TestSinusoidalEmbeddingProperties(t *testing.T) {
	emb := SinusoidalEmbedding([]int{0, 5, 100}, 16)
	if emb.Shape[0] != 3 || emb.Shape[1] != 16 {
		t.Fatalf("shape = %v", emb.Shape)
	}
	// t=0: all sins are 0, all cos are 1.
	for j := 0; j < 8; j++ {
		if emb.Data[j] != 0 {
			t.Errorf("sin(0) feature %d = %v", j, emb.Data[j])
		}
		if emb.Data[8+j] != 1 {
			t.Errorf("cos(0) feature %d = %v", j, emb.Data[8+j])
		}
	}
	// Distinct timesteps produce distinct embeddings.
	same := true
	for j := 0; j < 16; j++ {
		if emb.Data[16+j] != emb.Data[32+j] {
			same = false
		}
	}
	if same {
		t.Error("timesteps 5 and 100 share an embedding")
	}
}

func TestAdamMinimizesQuadratic(t *testing.T) {
	// Minimize ||x - c||^2: Adam should converge near c.
	x := Param(4)
	c := tensor.FromSlice([]float32{1, -2, 3, 0.5}, 4)
	opt := NewAdam(0.1, []*V{x})
	for i := 0; i < 300; i++ {
		tp := NewTape()
		loss := tp.MSE(x, c)
		tp.Backward(loss)
		opt.Step()
	}
	for i := range c.Data {
		if math.Abs(float64(x.X.Data[i]-c.Data[i])) > 0.05 {
			t.Fatalf("x[%d] = %v, want %v", i, x.X.Data[i], c.Data[i])
		}
	}
}

func TestAdamClipNorm(t *testing.T) {
	x := Param(2)
	opt := NewAdam(0.1, []*V{x})
	opt.ClipNorm = 1
	x.G.Data[0], x.G.Data[1] = 30, 40 // norm 50
	if math.Abs(opt.GradNorm()-50) > 1e-6 {
		t.Fatalf("grad norm = %v", opt.GradNorm())
	}
	opt.Step()
	// After step gradients are zeroed.
	if x.G.Data[0] != 0 || x.G.Data[1] != 0 {
		t.Fatal("step did not zero gradients")
	}
	// First Adam step magnitude ≈ lr regardless, but must be finite and
	// in the descent direction.
	if !(x.X.Data[0] < 0 && x.X.Data[1] < 0) {
		t.Fatalf("descent direction wrong: %v", x.X.Data)
	}
}

func TestLinearLayerTrainsXORish(t *testing.T) {
	// Small 2-layer net learns a linearly nonseparable function,
	// proving end-to-end training through Linear+Tanh works.
	r := stats.NewRNG(42)
	l1 := NewLinear(r, 2, 8)
	l2 := NewLinear(r, 8, 1)
	params := append(l1.Params(), l2.Params()...)
	opt := NewAdam(0.05, params)

	xs := tensor.FromSlice([]float32{0, 0, 0, 1, 1, 0, 1, 1}, 4, 2)
	ys := tensor.FromSlice([]float32{0, 1, 1, 0}, 4, 1)
	var last float32
	for i := 0; i < 800; i++ {
		tp := NewTape()
		h := tp.Tanh(l1.Apply(tp, NewV(xs)))
		out := l2.Apply(tp, h)
		loss := tp.MSE(out, ys)
		last = loss.X.Data[0]
		tp.Backward(loss)
		opt.Step()
	}
	if last > 0.05 {
		t.Fatalf("XOR loss did not converge: %v", last)
	}
}

func TestNormLayerOutputStats(t *testing.T) {
	r := stats.NewRNG(1)
	norm := NewNorm(32)
	x := NewV(tensor.New(4, 32).Randn(r, 5))
	tp := NewTape()
	y := norm.Apply(tp, x)
	tp.Reset()
	for row := 0; row < 4; row++ {
		var sum, sq float64
		for j := 0; j < 32; j++ {
			v := float64(y.X.Data[row*32+j])
			sum += v
			sq += v * v
		}
		mean := sum / 32
		std := math.Sqrt(sq/32 - mean*mean)
		if math.Abs(mean) > 1e-4 || math.Abs(std-1) > 1e-2 {
			t.Fatalf("row %d: mean=%v std=%v", row, mean, std)
		}
	}
}

func TestEmbeddingLookup(t *testing.T) {
	r := stats.NewRNG(2)
	emb := NewEmbedding(r, 3, 4)
	tp := NewTape()
	out := emb.Apply(tp, []int{2, 0})
	tp.Reset()
	for j := 0; j < 4; j++ {
		if out.X.Data[j] != emb.Table.X.Data[2*4+j] {
			t.Fatal("row 0 should be table row 2")
		}
		if out.X.Data[4+j] != emb.Table.X.Data[j] {
			t.Fatal("row 1 should be table row 0")
		}
	}
}

func TestTrainingLossIsFinite(t *testing.T) {
	// Failure-injection style check: even with aggressive LR the loss
	// must remain finite thanks to clipping.
	r := stats.NewRNG(4)
	l := NewLinear(r, 4, 4)
	opt := NewAdam(0.5, l.Params())
	opt.ClipNorm = 1
	x := tensor.New(8, 4).Randn(r, 10)
	y := tensor.New(8, 4).Randn(r, 10)
	for i := 0; i < 50; i++ {
		tp := NewTape()
		loss := tp.MSE(l.Apply(tp, NewV(x)), y)
		if math.IsNaN(float64(loss.X.Data[0])) || math.IsInf(float64(loss.X.Data[0]), 0) {
			t.Fatalf("loss became non-finite at step %d", i)
		}
		tp.Backward(loss)
		opt.Step()
	}
}

// TestNoGradTapeCarriesNoGradients pins the arena contract the sampler
// relies on: a no-grad tape's values have no gradient buffer at all —
// fresh, recycled, reshaped or rewrapped to another shape — and compute
// the same bytes as a gradient-recording tape, whose values other than
// constants still carry a zeroed gradient, including ones first pooled
// by a no-grad pass.
func TestNoGradTapeCarriesNoGradients(t *testing.T) {
	r := stats.NewRNG(9)
	x := NewV(tensor.New(3, 5).Randn(r, 1))
	w := NewV(tensor.New(4, 5).Randn(r, 1))
	forward := func(tp *Tape) *V {
		h := tp.SiLU(tp.Linear(tp.Input(x.X), w, nil))
		return tp.Reshape(tp.Add(h, h), 2, 6)
	}

	ng := NewTape()
	ng.EnableReuse()
	ng.SetNoGrad(true)
	var want []float32
	for pass := 0; pass < 3; pass++ { // pass 0 misses the arena, later ones hit it
		out := forward(ng)
		if pass == 0 {
			want = append(want, out.X.Data...)
		}
		for i, v := range out.X.Data {
			if v != want[i] {
				t.Fatalf("pass %d: recycled value differs at %d", pass, i)
			}
		}
		if out.G != nil {
			t.Fatalf("pass %d: reshape view of a no-grad value has a gradient", pass)
		}
		for _, v := range ng.taken {
			if v.G != nil {
				t.Fatalf("pass %d: no-grad arena value %v carries a gradient buffer", pass, v.X.Shape)
			}
		}
		ng.Reset()
		ng.Recycle()
	}
	// Same element count, different shape: the rewrap path.
	if v := ng.alloc(4, 3); v.G != nil {
		t.Fatal("rewrapped no-grad value carries a gradient buffer")
	}
	ng.Recycle()

	// The same arena on a gradient pass: every value, including those
	// pooled above without a buffer, gets a zeroed gradient.
	ng.SetNoGrad(false)
	out := forward(ng)
	for i, v := range out.X.Data {
		if v != want[i] {
			t.Fatalf("grad pass differs from no-grad pass at %d", i)
		}
	}
	for _, v := range ng.taken {
		if v.X.Len() == x.X.Len() {
			continue // the Input constant's value: it carries none (TestConstantsCarryNoGradient)
		}
		if v.G == nil || !v.G.SameShape(v.X) {
			t.Fatalf("grad tape value %v has no gradient buffer", v.X.Shape)
		}
		for _, g := range v.G.Data {
			if g != 0 {
				t.Fatal("grad tape value's gradient is not zeroed")
			}
		}
	}
	if tp := NewTape(); tp.alloc(2, 2).G == nil {
		t.Fatal("plain grad tape value has no gradient buffer")
	}
}

// TestConstantsCarryNoGradient: Input and TimeEmbed values have no
// gradient buffer on a gradient tape either — fresh, or drawn from an
// arena whose buffer of their size has one — and a backward pass
// through them runs.
func TestConstantsCarryNoGradient(t *testing.T) {
	x := tensor.New(3, 5).Randn(stats.NewRNG(4), 1)
	for _, reuse := range []bool{false, true} {
		tp := NewTape()
		if reuse {
			tp.EnableReuse()
		}
		for pass := 0; pass < 3; pass++ {
			// Scale's [3,5] output has a buffer; after Recycle the next
			// pass's constants of that size may draw it.
			scaled := tp.Scale(tp.Input(x), 2)
			in, te := tp.Input(x), tp.TimeEmbed([]int{1, 2, 3}, 5)
			if in.G != nil || te.G != nil {
				t.Fatalf("reuse=%v pass %d: a constant carries a gradient buffer", reuse, pass)
			}
			if i, ok := sameBits(in.X.Data, x.Data); !ok {
				t.Fatalf("reuse=%v pass %d: Input differs at element %d", reuse, pass, i)
			}
			tp.Backward(tp.Mean(tp.Add(scaled, tp.Add(in, te))))
			tp.Recycle()
		}
	}
}
