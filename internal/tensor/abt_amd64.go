//go:build !purego

package tensor

import "sync/atomic"

// hasAVX is read from the CPU once; nobody sets it.
var hasAVX = cpuHasAVX()

func cpuHasAVX() bool

// abtTile8 runs one k-block of one block of up to eight rows of A
// against groups×8 rows of B (DESIGN.md "The A·Bᵀ micro-kernel"). a and
// b point at the block's first row of A and the first B row, at the
// k-block's first term, c at the block's first output element; k is the
// row length of A and B; off holds each lane's row as a byte offset from
// c [0:8] and from a [8:16]. It transposes kb&^7 terms of the A rows
// into at[p*8+lane], expects the remaining terms there already, and for
// every column adds the kb terms in order, multiply rounded then add
// rounded, to a sum that starts at +0 if first and at what C holds
// otherwise, and stores it in C.
//
//go:noescape
func abtTile8(c *float32, off *[16]int, at, a, b *float32, k, kb, groups int, first bool)

// abtTileCol computes one block of one to four rows of A against
// groups×8 rows of B, whole: a, b and c point at the block's first row
// of A, the first B row and the block's first output element; k is the
// row length of A and B, n of C. Lanes are a group's eight columns: its
// B rows are transposed in registers four terms at a time, and every A
// row's sums start at +0, take their k terms in order, multiply rounded
// then add rounded, and go to C in one store per group.
//
//go:noescape
func abtTileCol(c, a, b *float32, k, n, rows, groups int)

// abtTileRuns, when a test points it somewhere, counts the blocks
// matmulABTRange hands each loop.
var abtTileRuns *[3]atomic.Int64

const tileCol, tileRow, tileScalar = 0, 1, 2 // indices into abtTileRuns

func countTile(tile int) {
	if abtTileRuns != nil {
		abtTileRuns[tile].Add(1)
	}
}

// abtRowBlock is the height of the tile an m-row, n-column product's
// last block runs on; dispatch deals rows out by it.
func abtRowBlock(m, n int) int {
	switch {
	case !hasAVX || n < 8:
		return 1
	case m <= 4:
		return 4
	}
	return 8
}

// matmulABTRange is the one A·Bᵀ kernel: it computes the output block
// rows [ilo, ihi) × columns [jlo, jhi) of C = A·Bᵀ. MatMulABTInto's
// serial call, row shards and column shards are all ranges over it.
// Over the whole column groups of eight, rows go eight at a time to the
// row-lane tile while more than four are left and the last one to four
// to the column-lane tile; columns past the last group go to
// matmulABTScalar. All three make every element by the same operations
// in the same order, so the cuts never show in the output.
//
//tracelint:hotpath
func matmulABTRange(c, a, b []float32, ilo, ihi, k, n, jlo, jhi int) {
	i, jv := ilo, jlo
	if hasAVX && jhi-jlo >= 8 {
		jv += (jhi - jlo) &^ 7
		if ihi-i > 4 { // the scratch is cleared only where a row-lane block runs
			var at [8 * kBlock]float32
			for ; ihi-i > 4; i = min(i+8, ihi) {
				abtBlock(&at, c, a, b, i, min(8, ihi-i), k, n, jlo, jv)
			}
		}
		if i < ihi {
			countTile(tileCol)
			abtTileCol(&c[i*n+jlo], &a[i*k], &b[jlo*k], k, n, ihi-i, (jv-jlo)/8)
		}
	}
	if jv < jhi {
		countTile(tileScalar)
		matmulABTScalar(c, a, b, ilo, ihi, k, n, jv, jhi)
	}
}

// abtBlock computes rows [i, i+rows) × columns [jlo, jv) on the row-lane
// tile, one k-block at a time. Lanes past rows stand in for the last
// live row, in A and in C, so they touch only what the block owns and
// that row's own sums overwrite theirs. Partial sums wait in C between
// k-blocks, which rounds nothing: they are float32 either way.
func abtBlock(at *[8 * kBlock]float32, c, a, b []float32, i, rows, k, n, jlo, jv int) {
	countTile(tileRow)
	var off [16]int
	for l := 0; l < 8; l++ {
		live := min(l, rows-1)
		off[l], off[8+l] = live*n*4, live*k*4
	}
	for p0 := 0; p0 < k; p0 += kBlock {
		kb := min(kBlock, k-p0)
		for p := kb &^ 7; p < kb; p++ {
			for l := 0; l < rows; l++ {
				at[p*8+l] = a[(i+l)*k+p0+p]
			}
		}
		abtTile8(&c[i*n+jlo], &off, &at[0], &a[i*k+p0], &b[jlo*k+p0], k, kb, (jv-jlo)/8, p0 == 0)
	}
}
