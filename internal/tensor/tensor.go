// Package tensor provides the dense float32 tensor type and the
// numeric kernels (one matrix multiply, C = A·Bᵀ, and the row-wise
// ops) that the nn autodiff package builds on. It is deliberately small: just what a
// CPU-trained DDPM and GAN need, with reference-checked kernels.
package tensor

import (
	"fmt"
	"sync/atomic"

	"trafficdiff/internal/stats"
)

// Tensor is a dense row-major float32 tensor.
type Tensor struct {
	Shape []int
	Data  []float32
	// owner holds Data's mapping when it has one of its own (see
	// NewLongLived); every view of the tensor carries it along.
	owner *mapping
}

// mapping is one anonymous memory mapping outside the Go heap. A
// finalizer unmaps it once no Tensor header refers to it.
type mapping struct{ mem []byte }

// mapMin is the element count from which NewLongLived maps a tensor's
// storage; smaller tensors are not worth a mapping of their own.
const mapMin = 16 << 10

// mappedBytes counts the bytes of tensor data held in live mappings,
// mappedTotal every byte ever mapped.
var mappedBytes, mappedTotal atomic.Int64

// New allocates a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	//tracelint:allow hotalloc — construction API: hot callers reuse storage through the nn.Tape arena
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, numel(shape))}
}

// NewLongLived allocates a zero tensor for storage that lives as long
// as a model does: its weights. On Linux a tensor of at least 16 Ki
// elements gets an anonymous mapping of its own, outside the Go heap,
// so the garbage collector's heap goal (a multiple of the live heap)
// grows with what a program allocates and drops, not with the size of
// the models it holds; smaller tensors, and every tensor elsewhere,
// live on the heap as New's do. The values and every kernel's results
// are the same either way.
//
// The mapping is freed once no Tensor header over it is reachable:
// Reshape and ViewOf keep it alive and Clone copies out of it, but a
// Data slice (or a FromSlice view of one, or a header whose Data was
// assigned by hand) must not outlive every header over the tensor it
// came from.
func NewLongLived(shape ...int) *Tensor {
	n := numel(shape)
	if n < mapMin {
		return New(shape...)
	}
	data, owner := mapFloats(n)
	return &Tensor{Shape: append([]int(nil), shape...), Data: data, owner: owner}
}

// MappedBytes returns the bytes of tensor data NewLongLived currently
// holds outside the Go heap.
func MappedBytes() int64 { return mappedBytes.Load() }

// MappedTotal returns the bytes of tensor data NewLongLived has mapped
// outside the Go heap since the program started, freed or not: with
// runtime.MemStats.TotalAlloc, what a piece of code allocated.
func MappedTotal() int64 { return mappedTotal.Load() }

// numel returns the element count of shape, which must have only
// positive dimensions.
func numel(shape []int) int {
	n := 1
	for _, s := range shape {
		if s <= 0 {
			// Format a copy: shape itself must not escape, so that a
			// variadic shape stays on its caller's stack.
			panic(fmt.Sprintf("tensor: non-positive dim %v", append([]int(nil), shape...)))
		}
		n *= s
	}
	return n
}

// FromSlice wraps data with the given shape, validating the size.
func FromSlice(data []float32, shape ...int) *Tensor {
	//tracelint:allow hotalloc — header-only wrapper over caller storage; hot callers cache the returned header
	t := &Tensor{Shape: append([]int(nil), shape...), Data: data}
	if len(data) != t.Len() {
		panic(fmt.Sprintf("tensor: %d elements for shape %v", len(data), t.Shape))
	}
	return t
}

// Len returns the total element count.
func (t *Tensor) Len() int {
	n := 1
	for _, s := range t.Shape {
		n *= s
	}
	return n
}

// Dim returns the size of axis i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	return &Tensor{Shape: append([]int(nil), t.Shape...), Data: append([]float32(nil), t.Data...)}
}

// Reshape returns a view with a new shape sharing storage. The element
// count must match.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	//tracelint:allow hotalloc — header-only view sharing storage; the arena rewrap path pays it rarely
	v := &Tensor{Shape: append([]int(nil), shape...), Data: t.Data, owner: t.owner}
	if v.Len() != t.Len() {
		panic(fmt.Sprintf("tensor: reshape %v -> %v", t.Shape, v.Shape))
	}
	return v
}

// ViewOf points t's storage at src's, keeping src's mapping (if any)
// alive as long as t is reachable; t keeps its own shape. It lets a
// reused header view another tensor's storage without an allocation.
func (t *Tensor) ViewOf(src *Tensor) { t.Data, t.owner = src.Data, src.owner }

// Zero sets all elements to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets all elements to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Randn fills the tensor with N(0, std) noise.
func (t *Tensor) Randn(r *stats.RNG, std float64) *Tensor {
	for i := range t.Data {
		t.Data[i] = float32(r.NormFloat64() * std)
	}
	return t
}

// MatMulABT computes C = A·Bᵀ for A [m,k] and B [n,k] → C [m,n],
// writing into a new tensor. Output rows (or columns, when the batch is
// narrow) are sharded across GOMAXPROCS workers; results are
// bit-identical at any worker count (see parallel.go).
func MatMulABT(a, b *Tensor) *Tensor {
	c := New(a.Shape[0], b.Shape[0])
	MatMulABTInto(c, a, b)
	return c
}

// MatMulABTInto computes C = A·Bᵀ into c [m,n]. Each element is an
// overwriting dot product, so c need not be zeroed.
//
//tracelint:hotpath
func MatMulABTInto(c, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: matmulABT %v x %v", a.Shape, b.Shape))
	}
	if c.Shape[0] != m || c.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmulABT out %v, want [%d %d]", c.Shape, m, n))
	}
	// Serial fast path before any closure is built: dispatch's closures
	// heap-allocate, which an inference loop would pay every step.
	if !ParallelOK(m * k * n) {
		matmulABTRange(c.Data, a.Data, b.Data, 0, m, k, n, 0, n)
		return
	}
	dispatch(c.Data, a.Data, b.Data, m, k, n)
}
