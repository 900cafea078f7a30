package tensor

import (
	"fmt"
	"math"
	"testing"

	"trafficdiff/internal/stats"
)

// rowOdd are the values whose handling could tell a vector kernel from
// the Go loop: signed zeros, denormals, infinities and NaNs with
// distinct payloads and signs, quiet and signalling, so an operand
// order that differs from the loop's shows in the result's payload.
var rowOdd = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -3e-39,
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc12345),
	math.Float32frombits(0x7f800abc), math.Float32frombits(0xff812345),
	math.MaxFloat32, -math.MaxFloat32, 1e-30, 1e30,
}

// requireBits fails unless got and want hold exactly the same bit
// patterns, NaN payloads included.
func requireBits(t *testing.T, got, want []float32, label string) {
	t.Helper()
	for i, w := range want {
		if g := got[i]; math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("%s: element %d is %v (%#08x), want %v (%#08x)",
				label, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

// rowOpCase runs each exported row-wise op against its Go loop: every
// operand is a window at a fuzzed float offset into a buffer of
// canaries, dst starts as canaries too, and inside dst's window the op
// must store the loop's bits while every other float of every buffer
// stays as it was. rows × d elements; d is the bias and scale row
// length. "AddInPlace" is Add with dst aliasing a, the way nn's
// backward passes accumulate a gradient.
func rowOpCase(t *testing.T, rows, d int, off uint8, seed uint64, odd uint8, s float32) {
	const margin = 16
	canary := math.Float32frombits(0x7fc5a5a5)
	r := stats.NewRNG(seed)
	n := rows * d
	operand := func(size, at int, fill bool) (buf, window []float32) {
		buf = make([]float32, margin+at+size+margin)
		for i := range buf {
			buf[i] = canary
		}
		window = buf[margin+at:][:size]
		for i := range window {
			if !fill {
				break
			}
			window[i] = float32(r.NormFloat64())
			if r.Bool(float64(odd) / 256) {
				window[i] = rowOdd[r.Intn(len(rowOdd))]
			}
		}
		return buf, window
	}
	for _, op := range []string{"Add", "AddInPlace", "AddScaled", "AddBias", "ScaleRows"} {
		abuf, a := operand(n, int(off)&7, true)
		bbuf, b := operand(n, int(off>>3)&7, true)
		biasbuf, bias := operand(d, int(off>>6), true)
		sbuf, sv := operand(rows, int(off)&3, true)
		dbuf, dst := operand(n, int(off>>2)&7, false)
		want := make([]float32, n)
		switch op {
		case "Add":
			addLoop(want, a, b)
			Add(dst, a, b)
		case "AddInPlace": // dst is a
			addLoop(want, a, b)
			dbuf, dst = abuf, a
			Add(dst, dst, b)
		case "AddScaled":
			addScaledLoop(want, a, b, s)
			AddScaled(dst, a, b, s)
		case "AddBias": // in place, on a
			copy(want, a)
			for i := 0; i < rows; i++ {
				addLoop(want[i*d:(i+1)*d], want[i*d:(i+1)*d], bias)
			}
			dbuf, dst = abuf, a
			AddBias(dst, bias)
		case "ScaleRows":
			for i := 0; i < rows; i++ {
				scaleLoop(want[i*d:(i+1)*d], a[i*d:(i+1)*d], sv[i])
			}
			ScaleRows(dst, a, sv)
		}
		label := fmt.Sprintf("%s %d×%d offsets %#x", op, rows, d, off)
		requireBits(t, dst, want, label)
		for i := range dst {
			dst[i] = canary
		}
		inPlace := op == "AddInPlace" || op == "AddBias"
		for _, buf := range [][]float32{abuf, bbuf, biasbuf, sbuf, dbuf} {
			if inPlace && &buf[0] == &abuf[0] {
				continue // a is the op's dst: its window is now canaries, its margins are checked below
			}
			for i, v := range buf {
				if math.Float32bits(v) != 0x7fc5a5a5 && (i < margin || i >= len(buf)-margin) {
					t.Fatalf("%s: margin float %d of an operand is %#08x", label, i, math.Float32bits(v))
				}
			}
		}
		for i, v := range dbuf {
			if math.Float32bits(v) != 0x7fc5a5a5 {
				t.Fatalf("%s: dst buffer float %d is %#08x outside the op's window", label, i, math.Float32bits(v))
			}
		}
	}
}

// TestRowOpsMatchLoops holds the exported row-wise ops to their Go
// loops over every length up to 67 — whole 32-float rounds, 8-float
// rounds and single floats — at unaligned offsets, with and without
// special values.
func TestRowOpsMatchLoops(t *testing.T) {
	for _, odd := range []uint8{0, 64, 255} {
		for n := 0; n <= 67; n++ {
			for _, rows := range []int{1, 3} {
				rowOpCase(t, rows, n, uint8(n*37), uint64(n)+1, odd, float32(-0.37))
			}
		}
	}
	rowOpCase(t, 2, 40, 0, 9, 255, float32(math.NaN()))
	rowOpCase(t, 2, 40, 0, 9, 255, math.Float32frombits(0xffc00042))
}

// FuzzRowOps puts fuzzed lengths, row counts, operand offsets, scale
// factors and special values through every exported row-wise op between
// canary margins (see rowOpCase).
func FuzzRowOps(f *testing.F) {
	f.Add(uint8(1), uint8(0), uint8(0), uint64(1), uint8(0), uint32(0x3f800000))
	f.Add(uint8(3), uint8(67), uint8(0xff), uint64(2), uint8(255), uint32(0x7fc00042))
	f.Add(uint8(2), uint8(33), uint8(0x5a), uint64(3), uint8(90), uint32(0x80000000))
	f.Add(uint8(4), uint8(8), uint8(0x13), uint64(4), uint8(30), uint32(0x00000001))
	f.Fuzz(func(t *testing.T, rows8, d8, off uint8, seed uint64, odd uint8, sbits uint32) {
		rowOpCase(t, int(rows8)%5, int(d8)%68, off, seed, odd, math.Float32frombits(sbits))
	})
}

func BenchmarkRowOps(b *testing.B) {
	const rows, d = 32, 2176
	r := stats.NewRNG(4)
	x, y, out := New(rows, d).Randn(r, 1), New(rows, d).Randn(r, 1), New(rows, d)
	bias, s := New(d).Randn(r, 1), New(rows).Randn(r, 1)
	for _, op := range []struct {
		name string
		run  func()
	}{
		{"Add", func() { Add(out.Data, x.Data, y.Data) }},
		{"AddScaled", func() { AddScaled(out.Data, x.Data, y.Data, 0.37) }},
		{"AddBias", func() { AddBias(out.Data, bias.Data) }},
		{"ScaleRows", func() { ScaleRows(out.Data, x.Data, s.Data) }},
		{"AddLoop", func() { addLoop(out.Data, x.Data, y.Data) }},
		{"AddScaledLoop", func() { addScaledLoop(out.Data, x.Data, y.Data, 0.37) }},
	} {
		b.Run(fmt.Sprintf("%s/r%d_d%d", op.name, rows, d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op.run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(rows*d), "ns/elem")
		})
	}
}
