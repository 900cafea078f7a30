package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trafficdiff/internal/stats"
)

// The parallel kernel layer's hard contract is exact (bit-level)
// equivalence with the serial reference at every GOMAXPROCS value —
// not approximate equality. These tests pin that contract across odd
// shapes (1×N, N×1, sizes that are not multiples of a tile or the
// worker count) and across worker counts.

// --- serial references: the pre-parallel kernels ---------------------
//
// refMatMul and refMatMulATB are the A·B and Aᵀ·B loops nn's Linear
// backward once ran on, zero skip included: it now runs both products
// on the A·Bᵀ kernel over transposed operands, which must give these
// bits for finite operands. Every product is rounded before it is
// added, as the kernels round it, so no target fuses the two.

func refMatMul(a, b *Tensor) *Tensor {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		ci := c.Data[i*n : (i+1)*n]
		ai := a.Data[i*k : (i+1)*k]
		for p := 0; p < k; p++ {
			av := ai[p]
			if av == 0 {
				continue
			}
			bp := b.Data[p*n : (p+1)*n]
			for j := range bp {
				ci[j] += float32(av * bp[j])
			}
		}
	}
	return c
}

func refMatMulATB(a, b *Tensor) *Tensor {
	k, m := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	c := New(m, n)
	for p := 0; p < k; p++ {
		ap := a.Data[p*m : (p+1)*m]
		bp := b.Data[p*n : (p+1)*n]
		for i, av := range ap {
			if av == 0 {
				continue
			}
			ci := c.Data[i*n : (i+1)*n]
			for j, bv := range bp {
				ci[j] += float32(av * bv)
			}
		}
	}
	return c
}

func refMatMulABT(a, b *Tensor) *Tensor {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[0]
	c := New(m, n)
	for i := 0; i < m; i++ {
		ai := a.Data[i*k : (i+1)*k]
		ci := c.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			bj := b.Data[j*k : (j+1)*k]
			var sum float32
			for p := range ai {
				sum += float32(ai[p] * bj[p])
			}
			ci[j] = sum
		}
	}
	return c
}

// --- helpers ---------------------------------------------------------

// transposed returns a copy of the 2-D tensor m transposed.
func transposed(m *Tensor) *Tensor {
	rows, cols := m.Shape[0], m.Shape[1]
	mt := New(cols, rows)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			mt.Data[j*rows+i] = m.Data[i*cols+j]
		}
	}
	return mt
}

// randTensor fills a tensor with noise plus exact zeros, so the sparse
// skip path is exercised.
func randTensor(r *stats.RNG, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		if r.Bool(0.1) {
			continue // exact zero
		}
		t.Data[i] = float32(r.NormFloat64())
	}
	return t
}

// requireIdentical fails unless got and want match bit-for-bit.
func requireIdentical(t *testing.T, got, want *Tensor, label string) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", label, got.Shape, want.Shape)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d = %v, want %v (exact)", label, i, got.Data[i], want.Data[i])
		}
	}
}

// withGOMAXPROCS runs fn under each of the given worker counts.
func withGOMAXPROCS(t *testing.T, counts []int, fn func(t *testing.T)) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, c := range counts {
		runtime.GOMAXPROCS(c)
		t.Run(fmt.Sprintf("procs=%d", c), fn)
	}
}

// matmulShapes covers degenerate rows/cols, shapes below and above the
// serial threshold, contractions that are not multiples of eight and
// sizes that are not multiples of any worker count, and the small edges the A·Bᵀ kernel's 1×4 tile
// introduces: column counts on both sides of a multiple of four, a
// one-term contraction, and column-sharded products (fewer rows than
// workers, above the threshold) whose shard boundaries at GOMAXPROCS 3
// are not multiples of four, so the same column is blocked in one split
// and an edge column in another.
var matmulShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 513},     // single row, wide (below the threshold: serial)
	{513, 7, 1},     // single column output
	{1, 300, 300},   // single row, square weight
	{3, 257, 129},   // odd everything
	{8, 64, 64},     // small, below threshold: serial path
	{65, 2176, 5},   // tall-thin above threshold
	{12, 2176, 128}, // the MLP training shape
	{5, 9, 2},       // n below one tile
	{5, 9, 3},
	{4, 33, 5}, // one tile plus one edge column
	{4, 33, 6},
	{3, 33, 7},    // one tile plus three edge columns
	{7, 1, 9},     // k = 1: every sum is a single product
	{1, 300, 513}, // column-sharded; shards of 171 columns at 3 workers
	{2, 257, 301}, // column-sharded at 3 and 8 workers; shards of 101 / 38
	{513, 300, 7}, // row-sharded with edge columns in every row
	{70, 2176, 2}, // row-sharded, n below one tile
}

// abtShapes are the A·Bᵀ-only cases: larger tile edges, then the four
// products the paper-scale adapted forward runs through MatMulABT (x
// projection, output projection, LoRA down, LoRA up) at the row counts
// serving and offline synthesis use.
func abtShapes() []struct{ m, k, n int } {
	out := []struct{ m, k, n int }{
		{3, 2176, 192},   // rows == workers at 3: row-sharded, one row each
		{1, 2176, 67},    // batch-1 row, n ≡ 3 (mod 4), column-sharded
		{2, 2176, 66},    // n ≡ 2 (mod 4), column-sharded at 3 and 8
		{9, 192, 2177},   // n ≡ 1 (mod 4), row-sharded
		{1, 140000, 1},   // 1×1 output above the threshold
		{129, 517, 89},   // uneven row shards at every worker count
		{128, 192, 2176}, // the head's output product over a stacked 2×64-row pair
	}
	return append(out, abtPaperShapes(1, 2, 8, 9, 64)...)
}

// abtPaperShapes is r × {2176×192, 192×2176, 2176×8, 8×2176} for each
// given row count r. Below nine rows the wide products are cut by
// columns: the 2176-column ones into chunks of 184 columns at 3 workers
// and 72 at 8, the 192-column ones into 16 and 8.
func abtPaperShapes(rows ...int) []struct{ m, k, n int } {
	var out []struct{ m, k, n int }
	for _, r := range rows {
		out = append(out,
			struct{ m, k, n int }{r, 2176, 192},
			struct{ m, k, n int }{r, 192, 2176},
			struct{ m, k, n int }{r, 2176, 8},
			struct{ m, k, n int }{r, 8, 2176})
	}
	return out
}

// TestMatMulMatchesSerialReference holds an A·B product made as nn's
// Linear backward makes dx = dy·w — A·Bᵀ against B transposed — to the
// A·B loop, bit for bit, exact zeros in A included.
func TestMatMulMatchesSerialReference(t *testing.T) {
	withGOMAXPROCS(t, []int{1, 2, 3, 8}, func(t *testing.T) {
		r := stats.NewRNG(42)
		for _, sh := range matmulShapes {
			a := randTensor(r, sh.m, sh.k)
			b := randTensor(r, sh.k, sh.n)
			requireIdentical(t, MatMulABT(a, transposed(b)), refMatMul(a, b),
				fmt.Sprintf("A·B %dx%dx%d", sh.m, sh.k, sh.n))
		}
	})
}

// TestMatMulATBMatchesSerialReference does the same for an Aᵀ·B product
// made as the backward makes dw = dyᵀ·x: A·Bᵀ over both operands
// transposed.
func TestMatMulATBMatchesSerialReference(t *testing.T) {
	withGOMAXPROCS(t, []int{1, 2, 3, 8}, func(t *testing.T) {
		r := stats.NewRNG(43)
		for _, sh := range matmulShapes {
			a := randTensor(r, sh.k, sh.m)
			b := randTensor(r, sh.k, sh.n)
			requireIdentical(t, MatMulABT(transposed(a), transposed(b)), refMatMulATB(a, b),
				fmt.Sprintf("Aᵀ·B %dx%dx%d", sh.m, sh.k, sh.n))
		}
	})
}

// TestMatMulABTMatchesSerialReference builds every case once, so the
// serial reference — the slow side, and independent of GOMAXPROCS — is
// computed once per shape rather than once per worker count.
func TestMatMulABTMatchesSerialReference(t *testing.T) {
	r := stats.NewRNG(44)
	type abtCase struct {
		a, b, want *Tensor
		label      string
	}
	var cases []abtCase
	for _, sh := range append(abtShapes(), matmulShapes...) {
		a := randTensor(r, sh.m, sh.k)
		b := randTensor(r, sh.n, sh.k)
		cases = append(cases, abtCase{a, b, refMatMulABT(a, b),
			fmt.Sprintf("MatMulABT %dx%dx%d", sh.m, sh.k, sh.n)})
	}
	withGOMAXPROCS(t, []int{1, 2, 3, 8}, func(t *testing.T) {
		for _, c := range cases {
			requireIdentical(t, MatMulABT(c.a, c.b), c.want, c.label)
		}
	})
}

// TestMatMulABTRangeMatchesSerialReference drives the kernel's range
// function directly over every sub-block of a product small enough to
// enumerate and large enough that blocks start and end inside, on and
// across the vector tile's eight rows and eight columns, with an odd k:
// whichever block a shard is handed, it writes exactly that block, and
// every element equals the serial reference bit for bit.
func TestMatMulABTRangeMatchesSerialReference(t *testing.T) {
	r := stats.NewRNG(48)
	const m, k, n = 11, 259, 18
	a := randTensor(r, m, k)
	b := randTensor(r, n, k)
	want := refMatMulABT(a, b)
	const poison = float32(-12345)
	for ilo := 0; ilo < m; ilo++ {
		for ihi := ilo + 1; ihi <= m; ihi++ {
			for jlo := 0; jlo < n; jlo++ {
				for jhi := jlo + 1; jhi <= n; jhi++ {
					c := New(m, n)
					c.Fill(poison)
					matmulABTRange(c.Data, a.Data, b.Data, ilo, ihi, k, n, jlo, jhi)
					for i := 0; i < m; i++ {
						for j := 0; j < n; j++ {
							exp := poison
							if i >= ilo && i < ihi && j >= jlo && j < jhi {
								exp = want.Data[i*n+j]
							}
							if c.Data[i*n+j] != exp {
								t.Fatalf("rows [%d,%d) cols [%d,%d): c[%d,%d] = %v, want %v (exact)",
									ilo, ihi, jlo, jhi, i, j, c.Data[i*n+j], exp)
							}
						}
					}
				}
			}
		}
	}
}

// TestKernelsIdenticalAcrossWorkerCounts is the direct GOMAXPROCS=1 vs
// GOMAXPROCS=N statement: one big product of each form the kernel
// serves (A·Bᵀ, and A·B and Aᵀ·B over transposed operands) computed at
// both settings, bytes compared.
func TestKernelsIdenticalAcrossWorkerCounts(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	r := stats.NewRNG(47)
	a := randTensor(r, 123, 517)
	b := randTensor(r, 517, 89)
	bT := randTensor(r, 89, 517)
	c := randTensor(r, 123, 89)
	products := []struct {
		label string
		a, b  *Tensor
	}{
		{"A·Bᵀ", a, bT},
		{"A·B", a, transposed(b)},
		{"Aᵀ·B", transposed(a), transposed(c)},
	}

	runtime.GOMAXPROCS(1)
	serial := make([]*Tensor, len(products))
	for i, p := range products {
		serial[i] = MatMulABT(p.a, p.b)
	}
	for _, procs := range []int{2, 4, 16} {
		runtime.GOMAXPROCS(procs)
		for i, p := range products {
			requireIdentical(t, MatMulABT(p.a, p.b), serial[i], fmt.Sprintf("%s procs=%d", p.label, procs))
		}
	}
}

// --- the helper pool -------------------------------------------------
//
// The dispatch under every kernel is one process-wide pool of parked or
// spinning helpers (parallel.go). These tests pin what the kernels rely
// on beyond the per-kernel equivalence above: helpers started for a
// high GOMAXPROCS stay harmless when it drops, two goroutines may
// dispatch at once, a kernel inside a chunk stays on its goroutine, and
// a finished job leaves nothing of itself in the pool.

// TestPoolShrinkingGOMAXPROCSMatchesSerialReference runs every product
// form at GOMAXPROCS 8 first — which starts seven helpers — and then at
// 2, 1 and 3 in the same process: the surplus helpers only ever park or
// claim chunks like any other, so every result stays exact.
func TestPoolShrinkingGOMAXPROCSMatchesSerialReference(t *testing.T) {
	r := stats.NewRNG(49)
	type product struct{ a, b, want *Tensor }
	var cases []product
	for _, sh := range []struct{ m, k, n int }{
		{1, 2176, 192}, {8, 2176, 192}, {9, 192, 2177}, {65, 517, 89}, {2, 257, 301},
	} {
		a, aT := randTensor(r, sh.m, sh.k), randTensor(r, sh.k, sh.m)
		b, bT := randTensor(r, sh.k, sh.n), randTensor(r, sh.n, sh.k)
		cases = append(cases,
			product{a, bT, refMatMulABT(a, bT)},
			product{a, transposed(b), refMatMul(a, b)},
			product{transposed(aT), transposed(b), refMatMulATB(aT, b)})
	}

	withGOMAXPROCS(t, []int{8, 2, 1, 3}, func(t *testing.T) {
		for i, c := range cases {
			requireIdentical(t, MatMulABT(c.a, c.b), c.want, fmt.Sprintf("case %d", i))
		}
	})
}

// TestPoolConcurrentDispatchersMatchSerialReference has two goroutines
// dispatch different products at the same time, over and over. Only one
// of them can hold the pool at any instant; the other runs its kernel on
// its own goroutine. Both must read the serial reference every time.
func TestPoolConcurrentDispatchersMatchSerialReference(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	r := stats.NewRNG(50)
	type job struct{ a, bT, want *Tensor }
	var jobs [2]job
	for i, sh := range []struct{ m, k, n int }{{8, 2176, 192}, {3, 517, 301}} {
		a, bT := randTensor(r, sh.m, sh.k), randTensor(r, sh.n, sh.k)
		jobs[i] = job{a, bT, refMatMulABT(a, bT)}
	}
	var wg sync.WaitGroup
	for g := range jobs {
		wg.Add(1)
		go func(j job, g int) {
			defer wg.Done()
			c := New(j.want.Shape...)
			for iter := 0; iter < 200; iter++ {
				c.Fill(-1)
				MatMulABTInto(c, j.a, j.bT)
				for i := range j.want.Data {
					if c.Data[i] != j.want.Data[i] {
						t.Errorf("dispatcher %d iter %d: element %d = %v, want %v (exact)", g, iter, i, c.Data[i], j.want.Data[i])
						return
					}
				}
			}
		}(jobs[g], g)
	}
	wg.Wait()
}

// TestPoolNestedKernelRunsSerially: inside a chunk the pool is taken,
// so a kernel called from there must not dispatch again — ParallelOK
// says no, and a direct shard runs its body once over the whole range on
// the calling goroutine.
func TestPoolNestedKernelRunsSerially(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	if !ParallelOK(minParallelWork) {
		t.Fatal("ParallelOK false outside any job at GOMAXPROCS 4")
	}
	const n = 16
	var outerChunks, nestedOK, innerCalls, innerWhole atomic.Int32
	Shard(n, func(lo, hi int) {
		outerChunks.Add(1)
		if ParallelOK(1 << 30) {
			nestedOK.Add(1)
		}
		Shard(n, func(ilo, ihi int) {
			innerCalls.Add(1)
			if ilo == 0 && ihi == n {
				innerWhole.Add(1)
			}
		})
	})
	if outerChunks.Load() < 2 {
		t.Fatalf("outer job ran as %d chunk(s); the pool was not used", outerChunks.Load())
	}
	if nestedOK.Load() != 0 {
		t.Errorf("ParallelOK was true inside %d chunk(s)", nestedOK.Load())
	}
	if innerCalls.Load() != outerChunks.Load() || innerWhole.Load() != outerChunks.Load() {
		t.Errorf("nested shard ran its body %d times (%d over the whole range) inside %d chunks; want once per chunk, whole range",
			innerCalls.Load(), innerWhole.Load(), outerChunks.Load())
	}
	if !ParallelOK(minParallelWork) {
		t.Error("pool still taken after the job returned")
	}
}

// TestPoolDropsClosureAfterDispatch: the published job is cleared on
// return, so whatever the kernel closure captured (in the sampler: a
// scheduler and its arena) is collectable as soon as the caller lets go
// of it.
func TestPoolDropsClosureAfterDispatch(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	collected := make(chan struct{})
	func() {
		buf := make([]float32, 1<<16)
		runtime.SetFinalizer(&buf[0], func(*float32) { close(collected) })
		chunks := 0
		Shard(len(buf), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				buf[i] = 1
			}
			if lo == 0 {
				chunks = (len(buf) + hi - 1) / hi
			}
		})
		if chunks < 2 {
			t.Fatalf("job ran as %d chunk(s); the pool was not used", chunks)
		}
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("buffer captured by a finished job's closure was never collected: the pool still references the closure")
}
