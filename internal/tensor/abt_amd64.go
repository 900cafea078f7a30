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

// abtVectorBlocks, when a test points it somewhere, counts abtBlock calls.
var abtVectorBlocks *atomic.Int64

// abtRowBlock is the rows one pass of the widest tile an m-row,
// n-column block runs on takes; dispatch deals rows out by it.
func abtRowBlock(m, n int) int {
	if hasAVX && m >= 2 && n >= 8 {
		return 8
	}
	return 1
}

// matmulABTRange is the one A·Bᵀ kernel: it computes the output block
// rows [ilo, ihi) × columns [jlo, jhi) of C = A·Bᵀ. MatMulABTInto's
// serial call, row shards and column shards are all ranges over it.
// Row blocks of two to eight rows × column groups of eight go to the
// vector tile; a lone last row and the columns past the last whole
// group go to matmulABTScalar. Both make every element by the same
// operations in the same order, so the cuts never show in the output.
//
//tracelint:hotpath
func matmulABTRange(c, a, b []float32, ilo, ihi, k, n, jlo, jhi int) {
	i, jv := ilo, jlo
	if abtRowBlock(ihi-ilo, jhi-jlo) == 8 {
		jv += (jhi - jlo) &^ 7
		var at [8 * kBlock]float32
		for ; ihi-i >= 2; i = min(i+8, ihi) {
			abtBlock(&at, c, a, b, i, min(8, ihi-i), k, n, jlo, jv)
		}
	}
	matmulABTScalar(c, a, b, i, ihi, k, n, jlo, jv)
	matmulABTScalar(c, a, b, ilo, ihi, k, n, jv, jhi)
}

// abtBlock computes rows [i, i+rows) × columns [jlo, jv) on the vector
// tile, one k-block at a time. Lanes past rows stand in for the last
// live row, in A and in C, so they touch only what the block owns and
// that row's own sums overwrite theirs. Partial sums wait in C between
// k-blocks, which rounds nothing: they are float32 either way.
func abtBlock(at *[8 * kBlock]float32, c, a, b []float32, i, rows, k, n, jlo, jv int) {
	if abtVectorBlocks != nil {
		abtVectorBlocks.Add(1)
	}
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
