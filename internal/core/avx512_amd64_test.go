//go:build !purego

package core

import (
	"testing"
	_ "unsafe" // go:linkname
)

// hasAVX512 is the tensor package's: whether the A·Bᵀ kernel runs
// blocks of nine and more rows on its 16-lane AVX-512 tile.
//
//go:linkname hasAVX512 trafficdiff/internal/tensor.hasAVX512
var hasAVX512 bool

// TestGoldenWithoutAVX512 reruns the golden digests with the 16-lane
// tile switched off, so a host that has AVX-512 also holds the 8-lane
// tile, all a host without it runs, to the recorded bytes.
func TestGoldenWithoutAVX512(t *testing.T) {
	if !hasAVX512 {
		t.Skip("no AVX-512: the golden digests already ran without the 16-lane tile")
	}
	hasAVX512 = false
	defer func() { hasAVX512 = true }()
	t.Run("SeededDigests", TestGoldenSeededDigests)
	t.Run("EditDigests", TestGoldenEditDigests)
}
