package nn

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"trafficdiff/internal/stats"
	"trafficdiff/internal/tensor"
)

// The row-wise ops share the kernels' dispatch and the arena hands
// their outputs out un-zeroed. Both are invisible in the bytes — these
// tests pin that: every op's output is identical at any GOMAXPROCS, on
// a fresh tape and on an arena whose recycled buffers hold garbage, and
// the fused LoRA epilogue is the two-op composition it replaced.

func sameBits(a, b []float32) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// opInputs holds fixed inputs for one call of every tape op (run).
// rows and d size the row-wise ops: large enough and they cross the
// dispatch threshold.
type opInputs struct {
	a, b, wide, gate *V // [rows,d], [rows,d], [rows,4d], [rows,1]
	pair             *V // [2·rows,d]
	w, bias          *V // Linear [d,d], [d]
	gamma, beta      *V
	table            *V
	target           *tensor.Tensor
}

func newOpInputs(r *stats.RNG, rows, d int) *opInputs {
	p := func(shape ...int) *V { return withGrads(NewV(tensor.New(shape...).Randn(r, 1)))[0] }
	return &opInputs{
		a: p(rows, d), b: p(rows, d), wide: p(rows, 4*d), gate: p(rows, 1), pair: p(2*rows, d),
		w: p(d, d), bias: p(d), gamma: p(d), beta: p(d), table: p(5, d),
		target: tensor.New(rows, d).Randn(r, 1),
	}
}

func (in *opInputs) params() []*V {
	return []*V{in.a, in.b, in.wide, in.gate, in.pair, in.w, in.bias, in.gamma, in.beta, in.table}
}

// run calls each tape op once and returns the outputs.
func (in *opInputs) run(tp *Tape) []*V {
	rows := in.a.X.Shape[0]
	idx := make([]int, rows)
	steps := make([]int, rows)
	for i := range idx {
		idx[i], steps[i] = i%5, 3*i
	}
	return []*V{
		tp.Add(in.a, in.b),
		tp.Scale(in.a, 1.7),
		tp.AddScaled(in.a, in.b, 0.37),
		tp.AddRepeat(in.pair, in.a),
		tp.Linear(in.a, in.w, in.bias),
		tp.Linear(in.a, in.w, nil),
		tp.SiLU(in.wide),
		tp.Tanh(in.a),
		tp.LeakyReLU(in.a, 0.2),
		tp.LayerNorm(in.a, in.gamma, in.beta),
		tp.Gather(in.table, idx),
		tp.MulScalarBroadcast(in.wide, in.gate),
		tp.TimeEmbed(steps, 7), // odd width: the last column carries no feature and must read zero
		tp.TimeEmbed(steps, 64),
		tp.Input(in.a.X),
		tp.MSE(in.a, in.target),
		tp.BCEWithLogits(in.a, in.target),
	}
}

// snapshot copies the outputs and, on a gradient tape, backpropagates
// from the sum of their means and copies every input gradient.
func (in *opInputs) snapshot(tp *Tape) [][]float32 {
	outs := in.run(tp)
	var got [][]float32
	for _, o := range outs {
		got = append(got, append([]float32(nil), o.X.Data...))
	}
	if tp.grad() {
		loss := tp.Mean(outs[0])
		for _, o := range outs[1:] {
			loss = tp.Add(loss, tp.Mean(o))
		}
		tp.Backward(loss)
		for _, p := range in.params() {
			got = append(got, append([]float32(nil), p.G.Data...))
			p.ZeroGrad()
		}
	}
	return got
}

func requireSame(t *testing.T, label string, got, want [][]float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for k := range want {
		if i, ok := sameBits(got[k], want[k]); !ok {
			t.Fatalf("%s: result %d differs at element %d", label, k, i)
		}
	}
}

// TestRowOpsIdenticalAcrossWorkerCounts computes every op serially
// (GOMAXPROCS 1) and then at 2, 3 and 8 workers, at a size where the
// row-wise ops shard and at one where nothing does, forward-only and
// with gradients: all bytes equal.
func TestRowOpsIdenticalAcrossWorkerCounts(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, sz := range []struct{ rows, d int }{{5, 8}, {131, 256}} {
		for _, nograd := range []bool{false, true} {
			in := newOpInputs(stats.NewRNG(uint64(sz.rows)), sz.rows, sz.d)
			pass := func() [][]float32 {
				tp := NewTape()
				tp.SetNoGrad(nograd)
				return in.snapshot(tp)
			}
			runtime.GOMAXPROCS(1)
			want := pass()
			for _, procs := range []int{2, 3, 8} {
				runtime.GOMAXPROCS(procs)
				requireSame(t, fmt.Sprintf("%dx%d nograd=%v procs=%d", sz.rows, sz.d, nograd, procs), pass(), want)
			}
		}
	}
}

// TestArenaReuseWithoutZeroingIsInvisible is the safety net under
// "recycled buffers are handed out un-zeroed": after a pass, every
// buffer in the arena is overwritten with NaNs, and the next pass —
// which now draws those buffers — must still produce the bytes of a
// fresh, arena-less tape, values and gradients alike.
func TestArenaReuseWithoutZeroingIsInvisible(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	nan := float32(math.NaN())
	for _, nograd := range []bool{false, true} {
		in := newOpInputs(stats.NewRNG(7), 131, 256)
		fresh := NewTape()
		fresh.SetNoGrad(nograd)
		want := in.snapshot(fresh)

		tp := NewTape()
		tp.EnableReuse()
		tp.SetNoGrad(nograd)
		for pass := 0; pass < 3; pass++ {
			requireSame(t, fmt.Sprintf("nograd=%v pass %d", nograd, pass), in.snapshot(tp), want)
			tp.Reset()
			tp.Recycle()
			for _, vs := range tp.free {
				for _, v := range vs {
					v.X.Fill(nan)
				}
			}
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

// TestAddScaledMatchesScaleThenAdd: the fused epilogue stores exactly
// what Add(a, Scale(b, s)) stores, and sends exactly its gradients back
// — including where s·b rounds and where the sum cancels.
func TestAddScaledMatchesScaleThenAdd(t *testing.T) {
	r := stats.NewRNG(21)
	const n, d = 37, 29
	a := NewV(tensor.New(n, d).Randn(r, 1))
	b := NewV(tensor.New(n, d).Randn(r, 1))
	withGrads(a, b)
	for i := 0; i < d; i++ {
		b.X.Data[i] = -a.X.Data[i] / 0.3 // a + s·b ≈ 0: the cancellation case
	}
	up := tensor.New(n, d).Randn(r, 1) // upstream gradient, via MSE's target
	type result struct{ out, ga, gb []float32 }
	pass := func(fused bool) result {
		tp := NewTape()
		var y *V
		if fused {
			y = tp.AddScaled(a, b, 0.3)
		} else {
			y = tp.Add(a, tp.Scale(b, 0.3))
		}
		tp.Backward(tp.MSE(y, up))
		res := result{
			append([]float32(nil), y.X.Data...),
			append([]float32(nil), a.G.Data...),
			append([]float32(nil), b.G.Data...),
		}
		a.ZeroGrad()
		b.ZeroGrad()
		return res
	}
	want, got := pass(false), pass(true)
	for _, c := range []struct {
		name      string
		got, want []float32
	}{{"output", got.out, want.out}, {"a gradient", got.ga, want.ga}, {"b gradient", got.gb, want.gb}} {
		if i, ok := sameBits(c.got, c.want); !ok {
			t.Errorf("%s differs from Add∘Scale at element %d: %v vs %v", c.name, i, c.got[i], c.want[i])
		}
	}
}

func TestGradAddScaled(t *testing.T) {
	r := stats.NewRNG(22)
	a := NewV(tensor.New(2, 3).Randn(r, 1))
	b := NewV(tensor.New(2, 3).Randn(r, 1))
	target := tensor.New(2, 3).Randn(r, 1)
	checkGrad(t, []*V{a, b}, func(tp *Tape) *V {
		return tp.MSE(tp.AddScaled(a, b, -1.3), target)
	})
}

// TestAddRepeatMatchesAddOfStackedRows: adding n shared rows to each of
// the 2n rows of a pair stores exactly what Add stores against the
// rows stacked twice — the copy a guided head used to make — at any
// worker count, on either side of the dispatch threshold.
func TestAddRepeatMatchesAddOfStackedRows(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, sz := range []struct{ rows, d int }{{3, 5}, {64, 2176}} {
		r := stats.NewRNG(uint64(sz.d))
		pair := NewV(tensor.New(2*sz.rows, sz.d).Randn(r, 1))
		shared := NewV(tensor.New(sz.rows, sz.d).Randn(r, 1))
		stacked := NewV(tensor.New(2*sz.rows, sz.d))
		copy(stacked.X.Data, shared.X.Data)
		copy(stacked.X.Data[len(shared.X.Data):], shared.X.Data)
		tp := NewTape()
		tp.SetNoGrad(true)
		want := tp.Add(pair, stacked).X.Data
		for _, procs := range []int{1, 2, 3} {
			runtime.GOMAXPROCS(procs)
			if i, ok := sameBits(tp.AddRepeat(pair, shared).X.Data, want); !ok {
				t.Errorf("%dx%d procs=%d: differs from Add of the stacked rows at element %d", sz.rows, sz.d, procs, i)
			}
		}
	}
}
