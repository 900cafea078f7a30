//go:build !amd64 || purego

package tensor

// matmulABTRange is the one A·Bᵀ kernel: it computes the output block
// rows [ilo, ihi) × columns [jlo, jhi) of C = A·Bᵀ. On this build it is
// the portable loop alone; abt_amd64.go puts a vector tile in front of
// the same loop.
func matmulABTRange(c, a, b []float32, ilo, ihi, k, n, jlo, jhi int) {
	matmulABTScalar(c, a, b, ilo, ihi, k, n, jlo, jhi)
}

// abtRowBlock is the rows one pass of the kernel's widest tile takes.
func abtRowBlock(m, n int) int { return 1 }
