package tensor

import (
	"fmt"
	"math"
	"testing"

	"trafficdiff/internal/stats"
)

// The A·Bᵀ kernel's property test. matmulABTScalar — the portable loop,
// called directly — is the oracle; matmulABTRange (whatever tiles this
// build puts in front of that loop) and MatMulABTInto (whatever way the
// dispatch cuts the product at this GOMAXPROCS) must reproduce it bit
// for bit: signed zeros and denormals included, a NaN wherever the
// oracle has one. On a build without the vector tile the two sides are
// the same code and the test pins only the dispatch.

var (
	abtPropRows = 17
	abtPropCols = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 24, 192}
	abtPropKs   = []int{1, 7, 8, 9, 31, 32, 255, 256, 257, 2176}
)

// requireSameBits fails unless got and want hold the same bit patterns,
// any NaN standing for any other.
func requireSameBits(t *testing.T, got, want []float32, label string) {
	t.Helper()
	for i, w := range want {
		g := got[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			t.Fatalf("%s: element %d = %v (%#08x), want %v (%#08x)",
				label, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

// abtPropBuffers returns the two operand pools every case of the grid
// takes its A and B from, at offsets that are not multiples of eight
// floats, so no case sees a 32-byte-aligned row. special mixes in the
// values whose handling could tell two code paths apart.
func abtPropBuffers(seed uint64, special bool) (apool, bpool []float32) {
	r := stats.NewRNG(seed)
	odd := []float32{
		0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -3e-39,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.MaxFloat32, -math.MaxFloat32, 1e-30, 1e30,
	}
	fill := func(n int) []float32 {
		buf := make([]float32, n)
		for i := range buf {
			buf[i] = float32(r.NormFloat64())
			if special && r.Bool(0.05) {
				buf[i] = odd[r.Intn(len(odd))]
			}
		}
		return buf
	}
	maxK := abtPropKs[len(abtPropKs)-1]
	return fill(abtPropRows*maxK + 8), fill(192*maxK + 8)
}

func TestABTBitIdenticalToScalarLoop(t *testing.T) {
	for _, special := range []bool{false, true} {
		apool, bpool := abtPropBuffers(71, special)
		withGOMAXPROCS(t, []int{1, 2, 3, 8}, func(t *testing.T) {
			if special && testing.Short() {
				t.Skip("special values: run without -short")
			}
			for ci, n := range abtPropCols {
				for ki, k := range abtPropKs {
					for m := 1; m <= abtPropRows; m++ {
						a := apool[1+(m+ki)%7:][:m*k]
						b := bpool[1+(ci+ki)%7:][:n*k]
						label := fmt.Sprintf("%dx%dx%d special=%v", m, n, k, special)
						want := make([]float32, m*n)
						matmulABTScalar(want, a, b, 0, m, k, n, 0, n)
						got := make([]float32, m*n+3)[3:]
						matmulABTRange(got, a, b, 0, m, k, n, 0, n)
						requireSameBits(t, got, want, "matmulABTRange "+label)
						c := New(m, n)
						MatMulABTInto(c, FromSlice(a, m, k), FromSlice(b, n, k))
						requireSameBits(t, c.Data, want, "MatMulABTInto "+label)
					}
				}
			}
		})
	}
}
