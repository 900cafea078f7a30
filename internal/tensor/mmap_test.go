package tensor

import (
	"runtime"
	"testing"
	"time"
)

// TestNewLongLivedStorage pins where NewLongLived puts a tensor: on
// Linux one of 16 Ki values or more gets a mapping of its own, a
// smaller one lives on the heap, and both start zero.
func TestNewLongLivedStorage(t *testing.T) {
	total := MappedTotal()
	small, big := NewLongLived(mapMin-1), NewLongLived(2, mapMin/2)
	if got, want := MappedTotal()-total, int64(4*mapMin); runtime.GOOS == "linux" && got != want {
		t.Fatalf("MappedTotal grew by %d bytes, want %d", got, want)
	}
	if small.owner != nil {
		t.Fatal("a tensor below the threshold got a mapping")
	}
	if (big.owner != nil) != (runtime.GOOS == "linux") {
		t.Fatalf("mapping %v on %s", big.owner != nil, runtime.GOOS)
	}
	for _, x := range [...]*Tensor{small, big} {
		for i, v := range x.Data {
			if v != 0 {
				t.Fatalf("value %d of a new %v tensor is %v", i, x.Shape, v)
			}
		}
	}
	runtime.KeepAlive(big)
}

// TestViewsKeepMappingAlive is the lifetime rule: a view owns the
// mapping as its parent does, so it stays readable after the parent
// header is unreachable and the finalizers queued since have run. A
// view that did not would read unmapped memory and crash the test.
func TestViewsKeepMappingAlive(t *testing.T) {
	runtime.GC()
	base := MappedBytes()
	parent := func() *Tensor {
		p := NewLongLived(64, mapMin/64)
		for i := range p.Data {
			p.Data[i] = float32(i)
		}
		return p
	}
	reshaped, viewed := func() (*Tensor, *Tensor) {
		var v Tensor
		v.ViewOf(parent())
		NewLongLived(mapMin) // dropped at once: its unmapping marks the finalizers as run
		return parent().Reshape(mapMin/64, 64), &v
	}()
	want := base
	if runtime.GOOS == "linux" {
		want += 2 * 4 * mapMin
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.GC(); MappedBytes() > want; runtime.GC() {
		if time.Now().After(deadline) {
			t.Fatalf("%d bytes still mapped, want %d", MappedBytes(), want)
		}
		time.Sleep(time.Millisecond)
	}
	if got := MappedBytes(); got != want {
		t.Fatalf("%d bytes mapped, want %d: a view's mapping went with its parent", got, want)
	}
	for _, view := range [...]*Tensor{reshaped, viewed} {
		for i, v := range view.Data {
			if v != float32(i) {
				t.Fatalf("view value %d is %v, want %d", i, v, i)
			}
		}
	}
}
