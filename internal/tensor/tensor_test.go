package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"trafficdiff/internal/stats"
)

func almostEqual(a, b float32) bool { return math.Abs(float64(a-b)) < 1e-4 }

func TestNewAndLen(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 || len(x.Data) != 24 {
		t.Fatalf("len = %d", x.Len())
	}
	if x.Dim(1) != 3 {
		t.Fatalf("dim = %d", x.Dim(1))
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 0)
}

func TestFromSliceValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for size mismatch")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestReshapeSharesStorage(t *testing.T) {
	x := New(2, 3)
	v := x.Reshape(3, 2)
	v.Data[0] = 7
	if x.Data[0] != 7 {
		t.Fatal("reshape copied storage")
	}
}

func TestCloneIndependent(t *testing.T) {
	x := New(2)
	c := x.Clone()
	c.Data[0] = 1
	if x.Data[0] != 0 {
		t.Fatal("clone shares storage")
	}
}

func TestMatMulReference(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	bT := FromSlice([]float32{7, 9, 11, 8, 10, 12}, 2, 3) // [[7 8] [9 10] [11 12]] transposed
	c := MatMulABT(a, bT)
	want := []float32{58, 64, 139, 154}
	for i := range want {
		if !almostEqual(c.Data[i], want[i]) {
			t.Fatalf("matmul = %v", c.Data)
		}
	}
}

// naiveMatMul is the reference implementation used to cross-check the
// optimized kernel property-style.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a.Data[i*k+p] * b.Data[p*n+j]
			}
			c.Data[i*n+j] = s
		}
	}
	return c
}

func TestQuickMatMulMatchesNaive(t *testing.T) {
	r := stats.NewRNG(1)
	f := func(seed uint64) bool {
		m, k, n := 1+int(seed%4), 1+int(seed/4%5), 1+int(seed/20%3)
		a := New(m, k).Randn(r, 1)
		b := New(k, n).Randn(r, 1)
		got, want := MatMulABT(a, transposed(b)), naiveMatMul(a, b)
		for i := range want.Data {
			if !almostEqual(got.Data[i], want.Data[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestMatMulATB makes Aᵀ·B as nn's Linear backward makes a weight
// gradient: A·Bᵀ over both operands transposed.
func TestMatMulATB(t *testing.T) {
	r := stats.NewRNG(2)
	a := New(4, 3).Randn(r, 1) // k=4, m=3
	b := New(4, 2).Randn(r, 1) // k=4, n=2
	got := MatMulABT(transposed(a), transposed(b))
	want := naiveMatMul(transposed(a), b)
	for i := range want.Data {
		if !almostEqual(got.Data[i], want.Data[i]) {
			t.Fatalf("ATB mismatch: %v vs %v", got.Data, want.Data)
		}
	}
}

func TestMatMulABT(t *testing.T) {
	r := stats.NewRNG(3)
	a := New(3, 4).Randn(r, 1)
	b := New(2, 4).Randn(r, 1)
	got := MatMulABT(a, b)
	want := naiveMatMul(a, transposed(b))
	for i := range want.Data {
		if !almostEqual(got.Data[i], want.Data[i]) {
			t.Fatalf("ABT mismatch")
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMulABT(New(2, 3), New(4, 2))
}

// TestAddInto accumulates into the first operand in place, as nn's
// backward passes add into a gradient.
func TestAddInto(t *testing.T) {
	a := []float32{1, 2}
	Add(a, a, []float32{10, 20})
	if a[0] != 11 || a[1] != 22 {
		t.Fatalf("Add in place = %v", a)
	}
}

func TestRandnMoments(t *testing.T) {
	r := stats.NewRNG(4)
	x := New(10000).Randn(r, 2)
	var sum, sq float64
	for _, v := range x.Data {
		sum += float64(v)
		sq += float64(v) * float64(v)
	}
	mean := sum / 10000
	std := math.Sqrt(sq/10000 - mean*mean)
	if math.Abs(mean) > 0.1 || math.Abs(std-2) > 0.1 {
		t.Fatalf("mean=%v std=%v", mean, std)
	}
}

func TestFillZero(t *testing.T) {
	x := New(3)
	x.Fill(5)
	if x.Data[1] != 5 {
		t.Fatal("fill failed")
	}
	x.Zero()
	if x.Data[1] != 0 {
		t.Fatal("zero failed")
	}
}

func TestSameShape(t *testing.T) {
	if !New(2, 3).SameShape(New(2, 3)) {
		t.Error("equal shapes misreported")
	}
	if New(2, 3).SameShape(New(3, 2)) || New(2).SameShape(New(2, 1)) {
		t.Error("unequal shapes misreported")
	}
}
