//go:build linux

package tensor

import (
	"fmt"
	"runtime"
	"syscall"
	"unsafe"
)

// mapFloats returns n zero float32s in an anonymous private mapping of
// their own. MAP_POPULATE faults every page in up front, so a model's
// first pass over its weights does not stop at each fresh page.
func mapFloats(n int) ([]float32, *mapping) {
	b, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_POPULATE)
	if err != nil {
		//tracelint:allow paniccheck — out of memory, as a failed heap allocation is
		panic(fmt.Sprintf("tensor: mapping %d bytes: %v", 4*n, err))
	}
	m := &mapping{mem: b}
	mappedBytes.Add(int64(len(b)))
	mappedTotal.Add(int64(len(b)))
	runtime.SetFinalizer(m, (*mapping).unmap)
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), n), m
}

// unmap is the mapping's finalizer: no Tensor header refers to it any
// more.
func (m *mapping) unmap() {
	mappedBytes.Add(-int64(len(m.mem)))
	if err := syscall.Munmap(m.mem); err != nil {
		//tracelint:allow paniccheck — unmapping what mapFloats mapped cannot fail
		panic(fmt.Sprintf("tensor: unmapping %d bytes: %v", len(m.mem), err))
	}
}
