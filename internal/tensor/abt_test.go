package tensor

import (
	"fmt"
	"math"
	"slices"
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
	abtPropRows = 40
	abtPropCols = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 24, 192}
	abtPropKs   = []int{1, 7, 8, 9, 31, 32, 255, 256, 257, 2176}
)

// abtOdd are the values whose handling could tell two code paths apart.
var abtOdd = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -3e-39,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.MaxFloat32, -math.MaxFloat32, 1e-30, 1e30,
}

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
// floats, so no case sees a 32-byte-aligned row. special mixes in
// abtOdd.
func abtPropBuffers(seed uint64, special bool) (apool, bpool []float32) {
	r := stats.NewRNG(seed)
	fill := func(n int) []float32 {
		buf := make([]float32, n)
		for i := range buf {
			buf[i] = float32(r.NormFloat64())
			if special && r.Bool(0.05) {
				buf[i] = abtOdd[r.Intn(len(abtOdd))]
			}
		}
		return buf
	}
	maxK := abtPropKs[len(abtPropKs)-1]
	return fill(abtPropRows*maxK + 8), fill(192*maxK + 8)
}

func TestABTBitIdenticalToScalarLoop(t *testing.T) {
	for _, special := range []bool{false, true} {
		if special && testing.Short() {
			t.Log("special values: run without -short")
			continue
		}
		// The oracle and matmulABTRange do not depend on GOMAXPROCS: each
		// case runs them once, and only the dispatch at every count.
		type abtCase struct {
			m, n, k    int
			a, b, want []float32
			label      string
		}
		var cases []abtCase
		apool, bpool := abtPropBuffers(71, special)
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
					cases = append(cases, abtCase{m, n, k, a, b, want, label})
				}
			}
		}
		withGOMAXPROCS(t, []int{1, 2, 3, 8}, func(t *testing.T) {
			for _, tc := range cases {
				c := New(tc.m, tc.n)
				MatMulABTInto(c, FromSlice(tc.a, tc.m, tc.k), FromSlice(tc.b, tc.n, tc.k))
				requireSameBits(t, c.Data, tc.want, "MatMulABTInto "+tc.label)
			}
		})
	}
}

// FuzzABTTiles hands matmulABTRange a fuzzed block [ilo,ihi) × [jlo,jhi)
// of a fuzzed product, operands at fuzzed offsets into buffers with a
// margin of canaries on either side, and C canaries throughout. The
// tiles load and store by computed offset, so what a bug there costs is
// memory, not a wrong sum: inside the block C must equal the scalar
// loop's bit for bit, and everything else — the rest of C, its
// margins, A, B and theirs — must be exactly as it was.
func FuzzABTTiles(f *testing.F) {
	f.Add(uint8(0), uint8(7), uint16(3), uint8(0), uint8(1), uint8(0), uint8(8), uint8(1), uint64(1), uint8(0))
	f.Add(uint8(3), uint8(15), uint16(6), uint8(0), uint8(4), uint8(3), uint8(16), uint8(5), uint64(2), uint8(40))
	f.Add(uint8(6), uint8(16), uint16(9), uint8(1), uint8(4), uint8(0), uint8(17), uint8(66), uint64(6), uint8(20))
	f.Add(uint8(6), uint8(8), uint16(30), uint8(0), uint8(5), uint8(0), uint8(8), uint8(129), uint64(7), uint8(0))
	f.Add(uint8(8), uint8(12), uint16(256), uint8(0), uint8(9), uint8(0), uint8(13), uint8(3), uint64(3), uint8(255))
	f.Add(uint8(17), uint8(23), uint16(8), uint8(5), uint8(18), uint8(8), uint8(24), uint8(0), uint64(4), uint8(10))
	f.Add(uint8(12), uint8(39), uint16(518), uint8(2), uint8(9), uint8(1), uint8(35), uint8(7), uint64(5), uint8(90))
	f.Fuzz(func(t *testing.T, m8, n8 uint8, k16 uint16, ilo8, ihi8, jlo8, jhi8, off8 uint8, seed uint64, odd8 uint8) {
		m, n, k := 1+int(m8)%40, 1+int(n8)%40, 1+int(k16)%520
		ilo, ihi := int(ilo8)%(m+1), int(ihi8)%(m+1)
		jlo, jhi := int(jlo8)%(n+1), int(jhi8)%(n+1)
		if ilo > ihi {
			ilo, ihi = ihi, ilo
		}
		if jlo > jhi {
			jlo, jhi = jhi, jlo
		}
		margin := 8 * n // a stored row the tile was not given lands in it
		canary := math.Float32frombits(0x7fc5a5a5)
		r := stats.NewRNG(seed)
		// operand returns a buffer of canaries and the size-float window
		// of it that starts off floats past the margin.
		operand := func(size, off int) (buf, window []float32) {
			buf = make([]float32, margin+off+size+margin)
			for i := range buf {
				buf[i] = canary
			}
			return buf, buf[margin+off:][:size]
		}
		abuf, a := operand(m*k, int(off8)&7)
		bbuf, b := operand(n*k, int(off8>>3)&7)
		cbuf, c := operand(m*n, int(off8>>6))
		for _, window := range [][]float32{a, b} {
			for i := range window {
				window[i] = float32(r.NormFloat64())
				if r.Bool(float64(odd8) / 512) {
					window[i] = abtOdd[r.Intn(len(abtOdd))]
				}
			}
		}
		abefore, bbefore, cbefore := slices.Clone(abuf), slices.Clone(bbuf), slices.Clone(cbuf)
		want := make([]float32, m*n)
		matmulABTScalar(want, a, b, ilo, ihi, k, n, jlo, jhi)

		matmulABTRange(c, a, b, ilo, ihi, k, n, jlo, jhi)

		label := fmt.Sprintf("%dx%dx%d block [%d,%d)x[%d,%d)", m, n, k, ilo, ihi, jlo, jhi)
		for i := ilo; i < ihi; i++ {
			row := c[i*n+jlo : i*n+jhi]
			requireSameBits(t, row, want[i*n+jlo:i*n+jhi], label)
			for j := range row {
				row[j] = canary
			}
		}
		for _, buf := range []struct {
			name        string
			got, before []float32
		}{{"A", abuf, abefore}, {"B", bbuf, bbefore}, {"C outside the block", cbuf, cbefore}} {
			for i, g := range buf.got {
				if w := buf.before[i]; math.Float32bits(g) != math.Float32bits(w) {
					t.Fatalf("%s: %s: buffer index %d is %v (%#08x), was %v (%#08x)",
						label, buf.name, i, g, math.Float32bits(g), w, math.Float32bits(w))
				}
			}
		}
	})
}
