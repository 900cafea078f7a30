//go:build !purego

package tensor

// The AVX row-wise kernels (rowops_amd64.s): dst[i] = a[i] + b[i],
// a[i] + float32(s*b[i]) and a[i] * s for i < n.
//
//go:noescape
func addAVX(dst, a, b *float32, n int)

//go:noescape
func addScaledAVX(dst, a, b *float32, n int, s float32)

//go:noescape
func scaleAVX(dst, a *float32, n int, s float32)

// add, addScaled and scale run the row-wise ops on AVX where the CPU
// has it, and as the Go loops otherwise. a and b are as long as dst.
func add(dst, a, b []float32) {
	if !hasAVX || len(dst) == 0 {
		addLoop(dst, a, b)
		return
	}
	addAVX(&dst[0], &a[0], &b[0], len(dst))
}

func addScaled(dst, a, b []float32, s float32) {
	if !hasAVX || len(dst) == 0 {
		addScaledLoop(dst, a, b, s)
		return
	}
	addScaledAVX(&dst[0], &a[0], &b[0], len(dst), s)
}

func scale(dst, a []float32, s float32) {
	if !hasAVX || len(dst) == 0 {
		scaleLoop(dst, a, s)
		return
	}
	scaleAVX(&dst[0], &a[0], len(dst), s)
}
