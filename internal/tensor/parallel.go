package tensor

import (
	"runtime"
	"sync/atomic"
)

// This file is the parallel kernel layer: every heavy kernel (the matrix
// multiply variants) and the row-wise ops above it (nn's
// LayerNorm/SiLU/Add, the sampler's per-flow update) split their
// *independent* work — output rows or output columns — into chunks
// that the calling goroutine and a pool of GOMAXPROCS−1 long-lived
// helpers claim from one shared counter.
//
// Determinism contract: chunking never reorders the floating-point
// accumulation that produces any single output element. Each element's
// value is a sum over the contraction index p, and every kernel below
// visits p in strictly increasing order no matter how the independent
// dimension is cut or which goroutine runs a chunk. Chunks write
// disjoint index ranges of the output slice, so results are
// bit-identical at GOMAXPROCS=1 and GOMAXPROCS=N and the race detector
// stays clean. Every product is rounded before it is added
// (float32(a*b)): Go may fuse a multiply and an add into one FMA on
// arm64 and other targets, which rounds once and changes the bits, and
// an explicit conversion is the spec's way to forbid that. See
// DESIGN.md "Parallel kernels & determinism under GOMAXPROCS".

// minParallelWork is the approximate number of multiply-adds (or
// equivalent element operations) below which a kernel runs serially on
// its caller.
//
// Re-measured against the pooled dispatch (2 workers, reference host,
// A·Bᵀ back to back so the helper is still polling; an empty job,
// BenchmarkShardDispatch, costs 0.2–1 µs there and 26 ns at one
// worker), serial vs pooled: 1×64×192 (12 K multiply-adds) 2.9 vs
// 4.5 µs, 1×2176×8 (17 K) 3.5 vs 4.9, 1×192×192 (36 K) 7–8.5 vs 7–9,
// 2×192×192 (72 K) 13–17 vs 11, 8×64×192 (96 K) 21–24 vs 14–15,
// 8×2176×8 (136 K) 27–30 vs 17–20, 8×192×192 (288 K) 66 vs 37.
// Break-even sits at 1<<15 and the gain is real from 1<<16, half the
// goroutine-per-shard dispatch's threshold; a parked helper adds a
// wake the caller does not wait for, so an op just above the line loses
// a few µs at worst.
//
// The vector A·Bᵀ tiles make a multiply-add 3–6× cheaper and the line
// did not move: a product now costs what its rows cost, and so does what
// a split saves. Serial vs pooled (by columns), µs, rows × out × in, 2
// workers, median of 5 rounds and then of four runs: 1×2176×8 (17 K)
// 2.8 vs 3.0, 2×64×192 (25 K) 2.2 vs 2.5, 2×2176×8 (35 K) 3.8 vs 3.4,
// 1×192×192 (37 K) 4.9 vs 3.9, 4×2176×8 (70 K) 5.8 vs 4.4, 2×192×192
// (74 K) 6.9 vs 5.5, 4×192×192 (147 K) 10.8 vs 6.8, 1×192×2176 (418 K)
// 53 vs 36: break-even still near 1<<15, every shape gains from 1<<16.
const minParallelWork = 1 << 16

// kBlock is the contraction-axis tile: panels of B this tall stay hot
// in cache while a row block of the output accumulates. Tiles are
// visited in increasing order, which preserves per-element accumulation
// order exactly.
const kBlock = 256

// chunksPerWorker is how many chunks a job is cut into per
// participant. One chunk each is the static split: a core that is
// descheduled mid-job (the reference host is a shared 2-vCPU VM) then
// holds everyone for its whole half. A few chunks each let whoever is
// running claim the rest, at the price of each row chunk streaming the
// other operand again. BenchmarkSampleAdapted/split (64 flows, 15
// steps, 2 workers), three alternated rounds, flows/s: 1 chunk per
// worker 284/301/303, 2 → 311/312/311, 4 → 315/318/310, 8 →
// 317/317/321; the GEMM micro-benchmarks do not separate 2, 4 and 8.
const chunksPerWorker = 4

// chunkAlign is the A·Bᵀ 8-lane tile's side, eight rows by eight
// columns, and every tile's column group: a chunk that is not a
// multiple of it leaves columns to the scalar loop, or cuts rows into
// short blocks, where a row costs 1.3× (four rows) to 2.5× (one) what
// it does in a block of eight, so chunk sizes round up to it whenever
// that still leaves a chunk per worker (row chunks for the 16-lane tile
// round up to sixteen; see dispatch). Element chunks lose nothing.
const chunkAlign = 8

// spinYields is how many times an idle helper polls the claim word,
// yielding between polls, before it parks. A poll-and-yield is
// ≈ 100–135 ns when nothing else is runnable, so 256 is ≈ 30 µs. What
// it buys: in a 64-flow step, 64 % of the gaps between one dispatch and
// the next are under 15 µs, 17 % are 15–30 µs, 12 % 30–60 µs and 7 %
// longer (the small serial ops in between), and a helper that parked
// in a gap comes back a futex wake and tens of µs later. What it
// costs: while a helper cycles through the global run queue the
// scheduler on that P never reaches netpoll. Serving used to pay that
// in tail latency; now the engine's step loops run under Serial
// whenever more than one of them holds flows, so only a loop stepping
// alone (a lone request on an idle server) and training wake helpers.
// Training does not separate the candidates: FineTune at paper
// geometry (60+60 steps, 4 classes × 8 flows, GOMAXPROCS 2), three
// alternated runs each, took 4.66 / 6.36 / 5.69 s at 64 yields,
// 4.95 / 6.15 / 5.71 s at 256 and 5.41 / 5.74 / 5.54 s at 1024 (the
// host drifts by more than the spread between them). 256 stays: it is
// the spin a lone loop's step has been tuned and measured at.
const spinYields = 256

// workers returns the number of goroutines a job is sized for: the
// caller plus GOMAXPROCS−1 helpers.
func workers() int { return runtime.GOMAXPROCS(0) }

// serialDepth says who owns the CPUs: it counts active Serial regions
// plus the one dispatch that currently holds the helper pool (shard
// takes it from 0 to 1). While it is non-zero every kernel runs on its
// calling goroutine — code inside a Serial region, inside a chunk of a
// running job (a fused epilogue invoking a matmul), or dispatching
// beside another goroutine's job (a second engine step loop) never
// queues behind the pool and never contends with it. It changes only
// where work runs, never what any kernel computes, so results stay
// bit-identical either way.
var serialDepth atomic.Int32

// Serial runs fn with the parallel kernel layer disabled: every tensor
// kernel invoked while any Serial region is active, on any goroutine,
// executes on its calling goroutine. Wrap the per-item body of a
// caller-owned worker pool in Serial when the pool already keeps the
// CPUs busy — the engine's step loops step under it while more than
// one of them holds flows — since intra-kernel sharding on top of it
// only adds dispatch overhead, helper wakes and contention.
func Serial(fn func()) {
	serialDepth.Add(1)
	defer serialDepth.Add(-1)
	fn()
}

// The helper pool. One job is open at a time; its owner is the
// goroutine that took serialDepth from 0 to 1.
//
// claim packs (generation, chunks left) into one word. The owner
// writes the job fields, then stores a new generation with the chunk
// count: that store publishes the fields. Anyone — owner or helper —
// claims a chunk by a compare-and-swap that decrements the low half;
// success proves the job of that generation is still open, and only
// then are the job fields read. The owner returns once pending, the
// count of chunks not yet finished, reaches zero, so the fields are
// never written while a claimed chunk is running.
var pool = struct {
	claim   atomic.Uint64
	pending atomic.Int32
	// parked counts helpers blocked on (or about to block on) wake.
	parked atomic.Int32
	wake   chan struct{}

	// The open job: fn over [0, n) in chunks of size, count of them.
	// Owner-written before claim is published, cleared before the pool
	// is released so a finished job's closure (and whatever it captured:
	// a scheduler, its arena) is not kept alive by the pool.
	fn      func(lo, hi int)
	n, size int
	count   uint64
	helpers int // helpers started so far; owner-only
}{wake: make(chan struct{})}

const chunkMask = 1<<32 - 1

// runChunk claims one chunk of the open job and runs it, reporting
// whether there was one to claim.
//
//tracelint:hotpath
func runChunk() bool {
	for {
		w := pool.claim.Load()
		left := w & chunkMask
		if left == 0 {
			return false
		}
		if !pool.claim.CompareAndSwap(w, w-1) {
			continue
		}
		lo := int(pool.count-left) * pool.size
		hi := min(lo+pool.size, pool.n)
		pool.fn(lo, hi)
		pool.pending.Add(-1)
		return true
	}
}

// helper is the body of one pool goroutine: run chunks while there are
// any, poll for the next job for a bounded number of yields, then park
// until a dispatch wakes it. Every wait yields, so a helper never holds
// a P against runnable work at any GOMAXPROCS.
func helper() {
	idle := 0
	for {
		if runChunk() {
			idle = 0
			continue
		}
		if idle < spinYields {
			idle++
			runtime.Gosched()
			continue
		}
		pool.parked.Add(1)
		if pool.claim.Load()&chunkMask == 0 {
			<-pool.wake
		}
		pool.parked.Add(-1)
		idle = 0
	}
}

// Shard cuts [0, n) into contiguous chunks and runs fn on each,
// returning when all are done. fn must compute each index from that
// index's inputs alone and write only state owned by its chunk: that is
// what makes the result independent of how the range is cut. The caller
// claims chunks itself beside the helpers, so the job completes even if
// no helper ever arrives — that is the serial kernel — and a caller
// that finds the pool taken (a Serial region, an enclosing chunk,
// another goroutine's job) runs fn(0, n) on the spot.
//
//tracelint:hotpath
func Shard(n int, fn func(lo, hi int)) { shard(n, chunkAlign, fn) }

// shard is Shard with chunk sizes rounded up to a multiple of align
// rather than of chunkAlign, whenever that still leaves a chunk per
// worker.
//
//tracelint:hotpath
func shard(n, align int, fn func(lo, hi int)) {
	w := min(workers(), n)
	if w <= 1 || !serialDepth.CompareAndSwap(0, 1) {
		fn(0, n)
		return
	}
	defer serialDepth.Add(-1)
	startHelpers(w - 1)

	size := (n + w*chunksPerWorker - 1) / (w * chunksPerWorker)
	if aligned := (size + align - 1) / align * align; (n+aligned-1)/aligned >= w {
		size = aligned
	}
	chunks := (n + size - 1) / size
	pool.fn, pool.n, pool.size, pool.count = fn, n, size, uint64(chunks)
	pool.pending.Store(int32(chunks))
	gen := pool.claim.Load()>>32 + 1
	pool.claim.Store(gen<<32 | uint64(chunks))

	// Wake parked helpers without waiting for them: a send lands only on
	// a helper already blocked in receive, and whoever shows up late
	// finds the chunks the caller has not reached yet.
	for k := min(int(pool.parked.Load()), w-1); k > 0; k-- {
		select {
		//tracelint:allow hotalloc — zero-size token, nothing is allocated
		case pool.wake <- struct{}{}:
		default:
		}
	}
	for runChunk() {
	}
	for pool.pending.Load() != 0 {
		runtime.Gosched()
	}
	pool.fn = nil
}

// startHelpers grows the pool to k helpers. They are never stopped: a
// parked helper costs one blocked goroutine, and GOMAXPROCS rising
// again finds them ready.
func startHelpers(k int) {
	for ; pool.helpers < k; pool.helpers++ {
		go helper()
	}
}

// ParallelOK reports whether a kernel costing work multiply-adds
// should shard: the op is large enough to amortize a dispatch, more
// than one worker exists, and nobody else owns the CPUs (see
// serialDepth). Kernels here and row-wise ops elsewhere (nn's
// normalization and activations, the sampler's per-flow update) ask it
// first and build the closure they hand to Shard only on a yes, so a
// small op stays on the allocation-free serial path.
func ParallelOK(work int) bool {
	return work >= minParallelWork && workers() > 1 && serialDepth.Load() == 0
}

// dispatch runs a kernel over an output of rows x cols elements costing
// work multiply-adds: serially when small (or when the pool is taken),
// chunked over rows when they make a whole block of rowBlock rows (one
// pass of the kernel's tile at its full height) for every worker, over
// columns when not (the batch-1 inference shape) and every worker can
// have chunkAlign of them, over rows in blocks of chunkAlign when those
// give every worker one, and serially otherwise. Both kernels must
// produce bit-identical elements; only the split differs.
//
// A·Bᵀ on the vector tiles, 2 workers, median of 5 rounds and then of
// four runs, µs serial / by rows / by columns (rows×out×in): 1×192×2176
// 53 / 58 / 36; 1×2176×192 65 / 68 / 34; 1×2176×8 2.8 / 2.8 / 3.0;
// 1×8×2176 2.2 / 2.2 / 8.2; 2×192×2176 80 / 64 / 42; 2×2176×192 92 /
// 81 / 46; 2×2176×8 3.8 / 4.4 / 3.4; 2×8×2176 3.2 / 3.8 / 16; 4×192×2176
// 122 / 135 / 63; 4×2176×192 124 / 162 / 68; 4×2176×8 5.8 / 7.6 / 4.4;
// 4×8×2176 4.8 / 6.2 / 29; 8×192×2176 188 / 256 / 117; 9×192×2176 260 /
// 218 (8+1) / 151; 12×2176×192 298 / 215 (8+4) / 197; 13×192×2176 391 /
// 243 (8+5) / 261; 16×192×2176 410 / 234 / 232; 18×192×2176 451 / 290
// (8+8+2) / 275. A short block costs what its rows cost, so cutting 9
// rows 8+1 idles one worker: rows are cut only into whole blocks — at
// two workers nine to fifteen go by columns — and from sixteen up the
// splits tie. A product whose widest tile is taller than chunkAlign
// rows (the 16-lane AVX-512 tile) and whose output is too narrow to cut
// by columns is cut into blocks of chunkAlign rows when that gives every
// worker one: 16×8×2176 at two workers ran 31.6 GFLOP/s as one 16-lane
// block against 39.2 as two 8-lane blocks side by side.
func dispatch(work, rows, rowBlock, cols int, rowKernel, colKernel func(lo, hi int)) {
	w := workers()
	switch {
	case !ParallelOK(work):
		rowKernel(0, rows)
	case rows/rowBlock >= w:
		shard(rows, max(rowBlock, chunkAlign), rowKernel)
	case cols >= chunkAlign*w:
		Shard(cols, colKernel)
	case rows/chunkAlign >= w:
		Shard(rows, rowKernel)
	default:
		rowKernel(0, rows)
	}
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
					ci[j] += float32(av * bv)
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
				ci[j] += float32(av * bv)
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
				ci[j] += float32(av * bv)
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
				cs[j] += float32(av * bv)
			}
		}
	}
}

// --- C = A·Bᵀ ----------------------------------------------------------

// matmulABTScalar is the portable A·Bᵀ loop, all of matmulABTRange on
// most builds (abt_generic.go), its edge loop beside the vector tiles on
// amd64, and the reference those tiles are held to: it computes the output
// block rows [ilo, ihi) × columns [jlo, jhi) of C = A·Bᵀ.
//
// It is register-blocked 1×4: one row of A against four rows of B with
// four independent accumulators, so each loaded a[p] feeds four
// multiply-adds and four dependency chains overlap the add latency a
// single running sum serializes on. The four B rows are the outer loop
// and the rows of A the inner one, so a B block is read from memory
// once per call and served from L1 for every further row of A. Columns
// left over when the range is not a multiple of four take the
// one-accumulator loop.
//
// Ordering: every output element is its own sum over p = 0..k-1 in
// increasing order, a separate float32 multiply and add per term,
// starting from zero. Blocking only decides which elements are in
// flight together, never the order of any one element's terms, so an
// element's bits do not depend on which loop or which tile it lands in,
// at any GOMAXPROCS and any shard boundary (DESIGN.md "The A·Bᵀ
// micro-kernel").
//
//tracelint:hotpath
func matmulABTScalar(c, a, b []float32, ilo, ihi, k, n, jlo, jhi int) {
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
				s0 += float32(av * b0[p])
				s1 += float32(av * b1[p])
				s2 += float32(av * b2[p])
				s3 += float32(av * b3[p])
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
				sum += float32(av * bj[p])
			}
			c[i*n+j] = sum
		}
	}
}
