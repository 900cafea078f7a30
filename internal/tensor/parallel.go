package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the parallel kernel layer: every heavy kernel (matrix
// multiply variants, im2col/col2im, the fused Conv2D epilogue) shards
// its *independent* work — output rows, output columns, batch images —
// across a goroutine pool sized by GOMAXPROCS.
//
// Determinism contract: sharding never reorders the floating-point
// accumulation that produces any single output element. Each element's
// value is a sum over the contraction index p, and every kernel below
// visits p in strictly increasing order no matter how the independent
// dimension is split. Workers write disjoint index ranges of the output
// slice, so results are bit-identical at GOMAXPROCS=1 and GOMAXPROCS=N
// and the race detector stays clean. See DESIGN.md "Parallel kernels &
// determinism under GOMAXPROCS".

// minParallelWork is the approximate number of fused multiply-adds (or
// equivalent element operations) below which a kernel runs serially:
// goroutine dispatch costs on the order of microseconds, so small ops
// must not pay it.
//
// Re-measured against the 1×4 A·Bᵀ kernel (2 workers, reference host,
// min of 41 interleaved rounds, sharded vs serial): 8×2176×8 (139 K
// multiply-adds) 30 vs 28 µs, 16×8×2176 (279 K) 70 vs 88 µs, 8×192×192
// (295 K) 53 vs 60 µs, 1×2176×192 (418 K, the batch-1 inference row)
// 87 vs 110 µs. Break-even sits between 1<<17 and 1<<18; the products
// in that band cost tens of microseconds in a step of milliseconds, so
// the constant stays.
const minParallelWork = 1 << 17

// kBlock is the contraction-axis tile: panels of B this tall stay hot
// in cache while a row block of the output accumulates. Tiles are
// visited in increasing order, which preserves per-element accumulation
// order exactly.
const kBlock = 256

// workers returns the shard count for parallel kernels.
func workers() int { return runtime.GOMAXPROCS(0) }

// serialDepth counts active serial regions: explicit Serial() calls
// plus kernels currently executing sharded workers. While it is
// non-zero, dispatch runs every kernel on the calling goroutine —
// code that is already inside a parallel region (a shard worker, or a
// caller-owned worker pool wrapped in Serial) never spawns a second
// layer of goroutines to contend with the first. The flag is advisory
// and process-wide; it changes only how work is scheduled, never what
// any kernel computes, so results stay bit-identical either way.
var serialDepth atomic.Int32

// Serial runs fn with the parallel kernel layer disabled: every tensor
// kernel invoked while any Serial region is active executes on its
// calling goroutine. Wrap the per-item body of a caller-owned worker
// pool in Serial when each item's tensor ops are small — the pool
// already saturates the CPUs, and intra-kernel sharding on top of it
// only adds dispatch overhead and contention (the PR 2 regression).
func Serial(fn func()) {
	serialDepth.Add(1)
	defer serialDepth.Add(-1)
	fn()
}

// shard splits [0, n) into one contiguous block per worker and runs fn
// on each block concurrently, blocking until all complete. fn must
// write only state owned by its block. While workers run, nested
// kernel calls (e.g. a fused epilogue invoking a matmul) see a
// non-zero serialDepth and stay on their worker goroutine.
func shard(n int, fn func(lo, hi int)) {
	w := workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		fn(0, n)
		return
	}
	serialDepth.Add(1)
	defer serialDepth.Add(-1)
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		//tracelint:allow hotalloc — parallel path only: shard is unreachable below the parallelOK work threshold
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// parallelOK reports whether a kernel costing work multiply-adds
// should shard: the op is large enough to amortize goroutine dispatch,
// more than one worker exists, and no Serial region or enclosing
// sharded kernel is active.
func parallelOK(work int) bool {
	return work >= minParallelWork && workers() > 1 && serialDepth.Load() == 0
}

// dispatch runs a kernel over an output of rows x cols elements costing
// work multiply-adds: serially when small (or when a Serial region /
// enclosing sharded kernel is active), sharded over rows when there
// are enough of them to feed every worker, and sharded over columns
// otherwise (the batch-1 inference shape: one row, wide output). Both
// kernels must produce bit-identical elements; only the split differs.
func dispatch(work, rows, cols int, rowKernel, colKernel func(lo, hi int)) {
	if !parallelOK(work) {
		rowKernel(0, rows)
		return
	}
	if rows >= workers() {
		shard(rows, rowKernel)
		return
	}
	shard(cols, colKernel)
}

// --- C = A·B -----------------------------------------------------------

// matmulRows computes rows [lo, hi) of C = A·B with C pre-zeroed, in
// cache-blocked ikj order. For each element, the contraction index p
// advances strictly monotonically (tile by tile, then within the tile),
// so accumulation order matches the serial kernel exactly.
func matmulRows(c, a, b []float32, lo, hi, k, n int) {
	for p0 := 0; p0 < k; p0 += kBlock {
		p1 := p0 + kBlock
		if p1 > k {
			p1 = k
		}
		for i := lo; i < hi; i++ {
			ci := c[i*n : (i+1)*n]
			ai := a[i*k : (i+1)*k]
			for p := p0; p < p1; p++ {
				av := ai[p]
				//tracelint:allow floateq — exact-zero sparse skip: av*x adds exactly 0, so skipping is lossless; an epsilon here would change results
				if av == 0 {
					continue
				}
				bp := b[p*n : (p+1)*n]
				for j, bv := range bp {
					ci[j] += av * bv
				}
			}
		}
	}
}

// matmulCols computes columns [jlo, jhi) of every row of C = A·B. Same
// per-element accumulation order as matmulRows: p strictly increasing.
func matmulCols(c, a, b []float32, m, k, n, jlo, jhi int) {
	for i := 0; i < m; i++ {
		ci := c[i*n+jlo : i*n+jhi]
		ai := a[i*k : (i+1)*k]
		for p := 0; p < k; p++ {
			av := ai[p]
			//tracelint:allow floateq — exact-zero sparse skip, see matmulRows
			if av == 0 {
				continue
			}
			bp := b[p*n+jlo : p*n+jhi]
			for j, bv := range bp {
				ci[j] += av * bv
			}
		}
	}
}

// --- C = Aᵀ·B ----------------------------------------------------------

// matmulATBRows computes rows [lo, hi) of C = Aᵀ·B (A is [k,m], so row
// i of C reads column i of A). p increases strictly per element.
func matmulATBRows(c, a, b []float32, lo, hi, k, m, n int) {
	for i := lo; i < hi; i++ {
		ci := c[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := a[p*m+i]
			//tracelint:allow floateq — exact-zero sparse skip, see matmulRows
			if av == 0 {
				continue
			}
			bp := b[p*n : (p+1)*n]
			for j, bv := range bp {
				ci[j] += av * bv
			}
		}
	}
}

// matmulATBCols computes columns [jlo, jhi) of C = Aᵀ·B in the serial
// kernel's p-outer order (A rows stream sequentially); per element the
// accumulation is still p-increasing.
func matmulATBCols(c, a, b []float32, k, m, n, jlo, jhi int) {
	for p := 0; p < k; p++ {
		ap := a[p*m : (p+1)*m]
		bp := b[p*n+jlo : p*n+jhi]
		for i, av := range ap {
			//tracelint:allow floateq — exact-zero sparse skip, see matmulRows
			if av == 0 {
				continue
			}
			cs := c[i*n+jlo : i*n+jhi]
			for j, bv := range bp {
				cs[j] += av * bv
			}
		}
	}
}

// --- C = A·Bᵀ ----------------------------------------------------------

// matmulABTRange is the one A·Bᵀ kernel: it computes the output block
// rows [ilo, ihi) × columns [jlo, jhi) of C = A·Bᵀ. MatMulABTInto's
// serial call, row shards and column shards are all ranges over it.
//
// It is register-blocked 1×4: one row of A against four rows of B with
// four independent accumulators, so each loaded a[p] feeds four
// multiply-adds and four dependency chains overlap the add latency a
// single running sum serializes on. The four B rows are the outer loop
// and the rows of A the inner one, so a B block is read from memory
// once per call and served from L1 for every further row of A — what
// makes a taller batch cheaper per row. Columns left over when the
// range is not a multiple of four take the one-accumulator loop.
//
// Ordering: every output element is still its own sum over
// p = 0..k-1 in increasing order, a separate float32 multiply and add
// per term, starting from zero — exactly the 1×1 loop's arithmetic for
// that element. Blocking only decides which elements are in flight
// together, never the order of any one element's terms, so the result
// is bit-identical to the serial reference whichever loop an element
// lands in, at any GOMAXPROCS and any shard boundary. The tile was
// picked by measurement (DESIGN.md "Parallel kernels & determinism"):
// 2×4 and 4×2 are no faster, and 4×4 spills its sixteen accumulators.
//
//tracelint:hotpath
func matmulABTRange(c, a, b []float32, ilo, ihi, k, n, jlo, jhi int) {
	j := jlo
	for ; j+4 <= jhi; j += 4 {
		b0 := b[j*k : (j+1)*k]
		b1 := b[(j+1)*k : (j+2)*k][:len(b0)]
		b2 := b[(j+2)*k : (j+3)*k][:len(b0)]
		b3 := b[(j+3)*k : (j+4)*k][:len(b0)]
		for i := ilo; i < ihi; i++ {
			ai := a[i*k : (i+1)*k][:len(b0)]
			var s0, s1, s2, s3 float32
			for p, av := range ai {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			ci := c[i*n+j : i*n+j+4]
			ci[0], ci[1], ci[2], ci[3] = s0, s1, s2, s3
		}
	}
	for ; j < jhi; j++ {
		bj := b[j*k : (j+1)*k]
		for i := ilo; i < ihi; i++ {
			ai := a[i*k : (i+1)*k][:len(bj)]
			var sum float32
			for p, av := range ai {
				sum += av * bj[p]
			}
			c[i*n+j] = sum
		}
	}
}
