//go:build !purego

package tensor

import "sync/atomic"

// hasAVX and hasAVX512 are read from the CPU once; nobody sets them.
var (
	hasAVX    = cpuHasAVX()
	hasAVX512 = hasAVX && cpuHasAVX512()
)

func cpuHasAVX() bool
func cpuHasAVX512() bool

// abtTile8 runs one k-block of one block of up to eight rows of A
// against groups×8 rows of B (DESIGN.md "The A·Bᵀ micro-kernel"). a and
// b point at the block's first row of A and the first B row, at the
// k-block's first term, c at the block's first output element; k is the
// row length of A and B; off holds each lane's row as a byte offset from
// c [0:8] and from a [8:16]. It transposes the kb terms of the A rows
// into a scratch at[p*8+lane] in its own frame (abtPanel floats), and
// for every column adds the kb terms in order, multiply rounded then add
// rounded, to a sum that starts at +0 if first and at what C holds
// otherwise, and stores it in C.
//
//go:noescape
func abtTile8(c *float32, off *[16]int, a, b *float32, k, kb, groups int, first bool)

// abtTile16 is abtTile8 for a block of up to sixteen rows, one per lane
// of a ZMM register: off holds each lane's row as a byte offset from c
// [0:16] and from a [16:32], and the scratch is at[p*16+lane].
//
//go:noescape
func abtTile16(c *float32, off *[32]int, a, b *float32, k, kb, groups int, first bool)

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

// abtPanel is the size in floats of a row-lane tile's scratch, the
// k-block of its rows of A transposed: 32 KB, which stays in L1 beside
// the B rows streaming past it. The frames of abtTile8 and abtTile16
// in abt_amd64.s are this many bytes times four.
const abtPanel = 8 << 10

// abtKStep is the k-block of a row-lane tile with the given lanes: k
// cut evenly, in multiples of eight terms, into the fewest blocks whose
// panel fits abtPanel, so that no block is a short one.
func abtKStep(k, lanes int) int {
	most := abtPanel / lanes
	blocks := (k + most - 1) / most
	return ((k+blocks-1)/blocks + 7) &^ 7
}

// abtTileRuns, when a test points it somewhere, counts the blocks
// matmulABTRange hands each loop.
var abtTileRuns *[4]atomic.Int64

const tileCol, tileRow8, tileRow16, tileScalar = 0, 1, 2, 3 // indices into abtTileRuns

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
	case m <= 8 || !hasAVX512:
		return 8
	}
	return 16
}

// matmulABTRange is the one A·Bᵀ kernel: it computes the output block
// rows [ilo, ihi) × columns [jlo, jhi) of C = A·Bᵀ. MatMulABTInto's
// serial call, row shards and column shards are all ranges over it.
// Over the whole column groups of eight, rows go sixteen at a time to
// the 16-lane tile while more than eight are left (on AVX-512), then
// eight at a time to the 8-lane tile while more than four are, and the
// last one to four to the column-lane tile; columns past the last group
// go to matmulABTScalar. All four make every element by the same
// operations in the same order, so the cuts never show in the output.
//
//tracelint:hotpath
func matmulABTRange(c, a, b []float32, ilo, ihi, k, n, jlo, jhi int) {
	i, jv := ilo, jlo
	if hasAVX && jhi-jlo >= 8 {
		jv += (jhi - jlo) &^ 7
		for ; hasAVX512 && ihi-i > 8; i = min(i+16, ihi) {
			countTile(tileRow16)
			abtRowLanes(c, a, b, i, min(16, ihi-i), 16, k, n, jlo, jv)
		}
		for ; ihi-i > 4; i = min(i+8, ihi) {
			countTile(tileRow8)
			abtRowLanes(c, a, b, i, min(8, ihi-i), 8, k, n, jlo, jv)
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

// abtRowLanes computes rows [i, i+rows) × columns [jlo, jv) on the
// row-lane tile with the given lanes, 8 or 16, one k-block at a time.
// Lanes past rows stand in for the last live row, in A and in C, so
// they touch only what the block owns and compute that row's own sums.
// Partial sums wait in C between k-blocks, which rounds nothing: they
// are float32 either way.
func abtRowLanes(c, a, b []float32, i, rows, lanes, k, n, jlo, jv int) {
	var off [32]int
	for l := 0; l < lanes; l++ {
		live := min(l, rows-1)
		off[l], off[lanes+l] = live*n*4, live*k*4
	}
	step, groups := abtKStep(k, lanes), (jv-jlo)/8
	for p0 := 0; p0 < k; p0 += step {
		kb, cp, ap, bp := min(step, k-p0), &c[i*n+jlo], &a[i*k+p0], &b[jlo*k+p0]
		if lanes == 16 {
			abtTile16(cp, &off, ap, bp, k, kb, groups, p0 == 0)
		} else {
			abtTile8(cp, (*[16]int)(off[:16]), ap, bp, k, kb, groups, p0 == 0)
		}
	}
}
