package lora

import (
	"math"
	"testing"

	"trafficdiff/internal/diffusion"
	"trafficdiff/internal/nn"
	"trafficdiff/internal/stats"
	"trafficdiff/internal/tensor"
)

func TestAdapterStartsAsNoOp(t *testing.T) {
	r := stats.NewRNG(1)
	base := nn.NewLinear(r, 6, 4)
	ad := NewAdapter(r, 6, 4, 2, 8)
	x := nn.NewV(tensor.New(3, 6).Randn(r, 1))

	tp := nn.NewTape()
	plain := base.Apply(tp, x)
	adapted := ad.Apply(tp, base, x)
	tp.Reset()
	for i := range plain.X.Data {
		if plain.X.Data[i] != adapted.X.Data[i] {
			t.Fatal("zero-init adapter changed output")
		}
	}
}

func TestAdapterRankValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for rank > dims")
		}
	}()
	NewAdapter(stats.NewRNG(1), 2, 2, 5, 1)
}

func TestAdapterLearnsResidualWithFrozenBase(t *testing.T) {
	// Freeze a random base layer; train only the adapter to map x to a
	// target function. The adapter's low-rank path must close the gap.
	r := stats.NewRNG(2)
	base := nn.NewLinear(r, 4, 4)
	ad := NewAdapter(r, 4, 4, 2, 4)
	opt := nn.NewAdam(0.05, ad.Params()) // base params excluded: frozen

	x := tensor.New(16, 4).Randn(r, 1)
	// Rank-1 target residual y = (x·u)·vᵀ — representable by a rank-2
	// adapter on top of the (frozen) base output.
	u := []float32{1, -0.5, 0.25, 2}
	v := []float32{0.5, 1, -1, 0.75}
	target := tensor.New(16, 4)
	for i := 0; i < 16; i++ {
		var dot float32
		for j := 0; j < 4; j++ {
			dot += x.Data[i*4+j] * u[j]
		}
		for j := 0; j < 4; j++ {
			target.Data[i*4+j] = dot * v[j]
		}
	}
	// Fold the base layer's own output into the target so the adapter
	// only has to learn the rank-1 part.
	{
		tp := nn.NewTape()
		baseOut := base.Apply(tp, nn.NewV(x))
		tp.Reset()
		for i := range target.Data {
			target.Data[i] += baseOut.X.Data[i]
		}
	}
	baseW := append([]float32(nil), base.W.X.Data...)

	var last float32
	for i := 0; i < 400; i++ {
		tp := nn.NewTape()
		out := ad.Apply(tp, base, nn.NewV(x))
		loss := tp.MSE(out, target)
		last = loss.X.Data[0]
		tp.Backward(loss)
		opt.Step()
	}
	if base.W.G != nil || base.B.G != nil {
		t.Fatal("the frozen base gained a gradient buffer")
	}
	if last > 0.1 {
		t.Fatalf("adapter failed to fit residual: loss %v", last)
	}
	for i := range baseW {
		if base.W.X.Data[i] != baseW[i] {
			t.Fatal("base weights moved during adapter training")
		}
	}
}

func TestAdaptedMLPMatchesBaseInitially(t *testing.T) {
	r := stats.NewRNG(4)
	base := diffusion.NewMLPDenoiser(r, 4, 6, 32, 2)
	// Give the base's own class table some training signal proxy: the
	// adapted model replaces it, so outputs can differ only through
	// class embeddings. Zero both tables to compare the rest.
	base.ClassEmbLayer().Table.X.Zero()
	ad := NewAdaptedMLP(r, base, 2, 4, 3)
	ad.ClassEmb.Table.X.Zero()

	x := tensor.New(2, 1, 4, 6).Randn(r, 1)
	tp := nn.NewTape()
	y1 := base.Forward(tp, nn.NewV(x.Clone()), []int{1, 2}, []int{0, 1}, nil)
	tp.Reset()
	tp2 := nn.NewTape()
	y2 := ad.Forward(tp2, nn.NewV(x.Clone()), []int{1, 2}, []int{0, 1}, nil)
	tp2.Reset()
	for i := range y1.X.Data {
		if math.Abs(float64(y1.X.Data[i]-y2.X.Data[i])) > 1e-5 {
			t.Fatalf("adapted output diverges at init: %v vs %v", y1.X.Data[i], y2.X.Data[i])
		}
	}
}

func TestAdaptedMLPExtendsClassCount(t *testing.T) {
	r := stats.NewRNG(5)
	base := diffusion.NewMLPDenoiser(r, 4, 4, 16, 2)
	ad := NewAdaptedMLP(r, base, 2, 4, 5) // extend 2 -> 5 classes
	if ad.NullClass() != 5 {
		t.Fatalf("null class = %d, want 5", ad.NullClass())
	}
	h, w := ad.Shape()
	if h != 4 || w != 4 {
		t.Fatalf("shape = %dx%d", h, w)
	}
	// Forward works with the new class ids.
	x := tensor.New(1, 1, 4, 4).Randn(r, 1)
	tp := nn.NewTape()
	y := ad.Forward(tp, nn.NewV(x), []int{0}, []int{4}, nil)
	tp.Reset()
	if y.X.Shape[0] != 1 {
		t.Fatal("forward failed for extended class")
	}
}

func TestAdaptedFineTuneTrains(t *testing.T) {
	// End-to-end: freeze base, fine-tune adapters via diffusion.Train
	// with the adapter parameters as the trained set, loss must drop.
	r := stats.NewRNG(6)
	base := diffusion.NewMLPDenoiser(r, 4, 8, 48, 2)
	ad := NewAdaptedMLP(r, base, 4, 8, 2)
	sched := diffusion.NewSchedule(diffusion.ScheduleCosine, 30)

	set := &diffusion.TrainSet{}
	for rep := 0; rep < 6; rep++ {
		for cls := 0; cls < 2; cls++ {
			im := tensor.New(1, 4, 8)
			for j := range im.Data {
				v := float32(-1)
				if (j%8 < 4) == (cls == 0) {
					v = 1
				}
				im.Data[j] = v
			}
			set.Images = append(set.Images, im)
			set.Labels = append(set.Labels, cls)
		}
	}
	losses, err := diffusion.Train(ad, sched, set, diffusion.TrainConfig{
		Steps: 150, Batch: 6, LR: 1e-2, ClipNorm: 5, Seed: 1, Params: ad.Params(),
	})
	if err != nil {
		t.Fatal(err)
	}
	head, tail := 0.0, 0.0
	for _, l := range losses[:15] {
		head += l
	}
	for _, l := range losses[len(losses)-15:] {
		tail += l
	}
	if tail >= head {
		t.Fatalf("fine-tune loss did not decrease: %v -> %v", head/15, tail/15)
	}
}

// TestAdapterApplyMatchesScaleAddComposition: Apply ends in one fused
// base + (α/r)·up pass. On a gradient tape its output and every
// parameter gradient it produces — adapter, base layer and input — must
// equal, bit for bit, what the three-op epilogue it replaced
// (Scale, then Add) produces on the same seed, so LoRA fine-tuning
// follows the same trajectory.
func TestAdapterApplyMatchesScaleAddComposition(t *testing.T) {
	r := stats.NewRNG(11)
	const n, in, out, rank = 9, 24, 17, 4
	base := nn.NewLinear(r, in, out)
	ad := NewAdapter(r, in, out, rank, 6)
	ad.B.X.Randn(r, 0.3) // B starts at zero; make the delta live
	x := nn.NewV(tensor.New(n, in).Randn(r, 1))
	target := tensor.New(n, out).Randn(r, 1)
	params := []*nn.V{x, base.W, base.B, ad.A, ad.B}
	nn.NewAdam(1, params) // gives every operand a gradient buffer to compare

	composed := func(tp *nn.Tape) *nn.V {
		b := base.Apply(tp, x)
		down := tp.Linear(x, ad.A, nil)
		up := tp.Linear(down, ad.B, nil)
		return tp.Add(b, tp.Scale(up, float32(ad.Alpha/float64(ad.Rank))))
	}
	run := func(forward func(tp *nn.Tape) *nn.V) [][]float32 {
		tp := nn.NewTape()
		y := forward(tp)
		tp.Backward(tp.MSE(y, target))
		got := [][]float32{append([]float32(nil), y.X.Data...)}
		for _, p := range params {
			got = append(got, append([]float32(nil), p.G.Data...))
			p.ZeroGrad()
		}
		return got
	}
	want := run(composed)
	got := run(func(tp *nn.Tape) *nn.V { return ad.Apply(tp, base, x) })
	names := []string{"output", "x", "base.W", "base.B", "A", "B"}
	for k := range want {
		for i := range want[k] {
			if math.Float32bits(got[k][i]) != math.Float32bits(want[k][i]) {
				t.Fatalf("%s differs at element %d: fused %v, composed %v", names[k], i, got[k][i], want[k][i])
			}
		}
	}
}
