//go:build !purego

package tensor

import (
	"sync/atomic"
	"testing"

	"trafficdiff/internal/stats"
)

// TestABTBothTilesRun counts, through abtTileRuns, the blocks each
// product puts on each of the three loops: the bit-identity tests prove
// nothing about a tile unless it ran, nor about the scalar loop beside
// the tiles unless some columns were left to it. Over whole groups of
// eight columns, every eight rows and a rest of five to seven are one
// row-lane block each and a rest of one to four is one column-lane
// block; columns past the last group are one scalar call per range, and
// fewer than eight columns are the scalar loop's alone. The row counts
// include the ones TestSchedulerChurnBitIdentity (internal/diffusion)
// drives its batch through. One range over the whole product is counted
// exactly; so is MatMulABTInto where the dispatch leaves the blocks
// whole — a row split cuts at multiples of eight, so only its scalar
// calls multiply — and a column split (two workers, fewer than two
// whole row blocks into 192 columns at k = 2176: eight chunks of 24)
// runs every block once per chunk.
func TestABTBothTilesRun(t *testing.T) {
	if !hasAVX {
		t.Skip("no AVX: the scalar loop is the only tile")
	}
	var runs [3]atomic.Int64
	abtTileRuns = &runs
	defer func() { abtTileRuns = nil }()
	counts := func() (got [3]int64) {
		for tile := range runs {
			got[tile] = runs[tile].Swap(0)
		}
		return got
	}
	r := stats.NewRNG(73)
	for _, m := range []int{1, 2, 3, 4, 5, 8, 9, 12, 17, 18} {
		for _, n := range []int{7, 8, 13, 192} {
			for _, k := range []int{7, 8, 9, 2176} {
				a, b := randTensor(r, m, k), randTensor(r, n, k)
				want := refMatMulABT(a, b)
				var whole [3]int64
				if n >= 8 {
					whole[tileRow] = int64(m / 8)
					switch rest := m % 8; {
					case rest > 4:
						whole[tileRow]++
					case rest > 0:
						whole[tileCol] = 1
					}
				}
				if n%8 != 0 {
					whole[tileScalar] = 1
				}
				got := New(m, n)
				matmulABTRange(got.Data, a.Data, b.Data, 0, m, k, n, 0, n)
				requireIdentical(t, got, want, "matmulABTRange")
				if ran := counts(); ran != whole {
					t.Errorf("%dx%dx%d: one range ran {column-lane, row-lane, scalar} %v times, want %v", m, k, n, ran, whole)
				}
				for _, procs := range []int{1, 2} {
					withGOMAXPROCS(t, []int{procs}, func(t *testing.T) {
						requireIdentical(t, MatMulABT(a, b), want, "MatMulABT")
						ran, exp := counts(), whole
						if procs == 2 && m < 16 && n == 192 && k == 2176 {
							exp[tileCol], exp[tileRow] = 8*exp[tileCol], 8*exp[tileRow]
						}
						if procs == 2 && ran[tileScalar] > 0 {
							ran[tileScalar] = 1
						}
						if ran != exp {
							t.Errorf("%dx%dx%d: {column-lane, row-lane, scalar} ran %v times, want %v", m, k, n, ran, exp)
						}
					})
				}
			}
		}
	}
}
