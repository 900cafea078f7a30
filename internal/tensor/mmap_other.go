//go:build !linux

package tensor

func mapFloats(n int) ([]float32, *mapping) { return make([]float32, n), nil }
