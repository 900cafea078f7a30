//go:build !amd64 || purego

package tensor

// On this build the row-wise ops are the Go loops alone; rowops_amd64.go
// puts AVX kernels in front of the same loops.

func add(dst, a, b []float32) { addLoop(dst, a, b) }

func addScaled(dst, a, b []float32, s float32) { addScaledLoop(dst, a, b, s) }

func scale(dst, a []float32, s float32) { scaleLoop(dst, a, s) }
