//go:build !purego

package tensor

import (
	"sync/atomic"
	"testing"

	"trafficdiff/internal/stats"
)

// TestABTBothTilesRun counts, through abtTileRuns, the blocks each
// product puts on each of the four loops: the bit-identity tests prove
// nothing about a tile unless it ran, nor about the scalar loop beside
// the tiles unless some columns were left to it. Over whole groups of
// eight columns, on a host with AVX-512 every sixteen rows and a rest of
// nine to fifteen are one 16-lane block each; then every eight rows and
// a rest of five to seven are one 8-lane block each, and a rest of one
// to four is one column-lane block. Columns past the last group are one
// scalar call per range, and fewer than eight columns are the scalar
// loop's alone. The row counts include the ones
// TestSchedulerChurnBitIdentity (internal/diffusion) drives its batch
// through. One range over the whole product is counted exactly; so is
// MatMulABTInto where the dispatch leaves the blocks whole — a row split
// cuts at multiples of the row block, so only its scalar calls multiply
// — a column split (two workers, fewer than two whole row blocks into
// 192 columns at k = 2176: eight chunks of 24) runs every block once
// per chunk, and at two workers 16 to 31 rows too narrow to cut by
// columns go out in 8-row blocks.
func TestABTBothTilesRun(t *testing.T) {
	if !hasAVX {
		t.Skip("no AVX: the scalar loop is the only tile")
	}
	if hasAVX512 {
		t.Log("AVX-512: blocks of nine to sixteen rows run on the 16-lane tile")
	} else {
		t.Log("no AVX-512 (or switched off): the 16-lane tile is skipped, its rows go to the 8-lane tile")
	}
	var runs [4]atomic.Int64
	abtTileRuns = &runs
	defer func() { abtTileRuns = nil }()
	counts := func() (got [4]int64) {
		for tile := range runs {
			got[tile] = runs[tile].Swap(0)
		}
		return got
	}
	r := stats.NewRNG(73)
	for _, m := range []int{1, 2, 3, 4, 5, 8, 9, 12, 16, 17, 18, 24, 33} {
		for _, n := range []int{7, 8, 13, 192} {
			for _, k := range []int{7, 8, 9, 2176} {
				a, b := randTensor(r, m, k), randTensor(r, n, k)
				want := refMatMulABT(a, b)
				whole := abtBlocks(m, n, hasAVX512)
				got := New(m, n)
				matmulABTRange(got.Data, a.Data, b.Data, 0, m, k, n, 0, n)
				requireIdentical(t, got, want, "matmulABTRange")
				if ran := counts(); ran != whole {
					t.Errorf("%dx%dx%d: one range ran {column-lane, 8-lane, 16-lane, scalar} %v times, want %v", m, k, n, ran, whole)
				}
				for _, procs := range []int{1, 2} {
					withGOMAXPROCS(t, []int{procs}, func(t *testing.T) {
						requireIdentical(t, MatMulABT(a, b), want, "MatMulABT")
						ran, exp := counts(), whole
						switch {
						case procs == 2 && m < 2*abtRowBlock(m, n) && n == 192 && k == 2176:
							for tile := range exp {
								exp[tile] *= 8
							}
						case procs == 2 && hasAVX512 && m >= 16 && m < 32 && n < 16 && k == 2176:
							exp = abtBlocks(m, n, false) // cut into 8-row blocks
						}
						if procs == 2 && ran[tileScalar] > 0 {
							ran[tileScalar] = 1
						}
						if ran != exp {
							t.Errorf("%dx%dx%d: {column-lane, 8-lane, 16-lane, scalar} ran %v times, want %v", m, k, n, ran, exp)
						}
					})
				}
			}
		}
	}
}

// abtBlocks is how many blocks one range over a whole m-row, n-column
// product hands each loop, with or without the 16-lane tile.
func abtBlocks(m, n int, with16 bool) (runs [4]int64) {
	if n >= 8 {
		rest := m
		for ; with16 && rest > 8; rest -= min(16, rest) {
			runs[tileRow16]++
		}
		for ; rest > 4; rest -= min(8, rest) {
			runs[tileRow8]++
		}
		if rest > 0 {
			runs[tileCol] = 1
		}
	}
	if n%8 != 0 {
		runs[tileScalar] = 1
	}
	return runs
}

// TestWithoutAVX512 reruns the kernel equivalence tests with the
// 16-lane tile switched off, so a host that has AVX-512 also holds the
// 8-lane tile's blocks of nine and more rows — the whole row-lane path
// of a host without it — to the scalar loop.
func TestWithoutAVX512(t *testing.T) {
	if !hasAVX512 {
		t.Skip("no AVX-512: every other test already runs without the 16-lane tile")
	}
	hasAVX512 = false
	defer func() { hasAVX512 = true }()
	t.Run("BitIdenticalToScalarLoop", TestABTBitIdenticalToScalarLoop)
	t.Run("BothTilesRun", TestABTBothTilesRun)
	t.Run("MatMulABTMatchesSerialReference", TestMatMulABTMatchesSerialReference)
	t.Run("MatMulABTRangeMatchesSerialReference", TestMatMulABTRangeMatchesSerialReference)
	t.Run("KernelsIdenticalAcrossWorkerCounts", TestKernelsIdenticalAcrossWorkerCounts)
}
