//go:build !purego

package tensor

import (
	"sync/atomic"
	"testing"

	"trafficdiff/internal/stats"
)

// TestABTBothTilesRun counts, through abtVectorBlocks, the row blocks
// each product puts on the vector tile: the bit-identity tests prove
// nothing about that tile unless it ran, nor about the scalar loop
// beside it unless some rows and columns were left to it. One row is
// the scalar loop's alone; two to eight rows by whole column groups are
// one vector block and nothing else; a ninth or seventeenth row and a
// column edge are correct only if the scalar loop ran too, since the
// blocks counted do not cover them. The row counts are the ones
// TestSchedulerChurnBitIdentity (internal/diffusion) drives its batch
// through. A column split runs a block per chunk, so counts are per
// GOMAXPROCS.
func TestABTBothTilesRun(t *testing.T) {
	if !hasAVX {
		t.Skip("no AVX: the scalar loop is the only tile")
	}
	var blocks atomic.Int64
	abtVectorBlocks = &blocks
	defer func() { abtVectorBlocks = nil }()
	r := stats.NewRNG(73)
	for _, tc := range []struct {
		m, n   int
		blocks [2]int64 // at GOMAXPROCS 1 and 2
	}{
		{1, 192, [2]int64{0, 0}},
		{2, 192, [2]int64{1, 8}}, // one block; cut into 8 column chunks
		{8, 192, [2]int64{1, 8}},
		{9, 192, [2]int64{1, 1}}, // rows 0-7 | row 8 → the scalar loop
		{16, 8, [2]int64{2, 2}},
		{17, 192, [2]int64{2, 2}}, // 8 | 8 | 1
		{18, 192, [2]int64{3, 3}}, // 8 | 8 | 2: the last block has two live lanes
		{8, 13, [2]int64{1, 1}},   // columns 8-12 → the scalar loop
		{8, 7, [2]int64{0, 0}},
	} {
		a, b := randTensor(r, tc.m, 2176), randTensor(r, tc.n, 2176)
		want := refMatMulABT(a, b)
		for pi, procs := range []int{1, 2} {
			withGOMAXPROCS(t, []int{procs}, func(t *testing.T) {
				blocks.Store(0)
				requireIdentical(t, MatMulABT(a, b), want, "MatMulABT")
				if got := blocks.Load(); got != tc.blocks[pi] {
					t.Errorf("%dx2176x%d: %d row blocks on the vector tile, want %d", tc.m, tc.n, got, tc.blocks[pi])
				}
			})
		}
	}
}
