package tensor

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"trafficdiff/internal/stats"
)

// Substrate micro-benchmarks for the parallel kernel layer, run with
// `go test -run '^$' -bench . ./internal/tensor`. The end-to-end and
// per-layer numbers changes are judged on come from `bash bench/run.sh`.

var benchMatMulSizes = []struct{ m, k, n int }{
	{8, 2176, 128},   // MLP hidden forward, training batch
	{128, 2176, 128}, // wide batch
	{256, 256, 256},  // square reference point
	{1, 2176, 128},   // batch-1 inference row
}

func BenchmarkMatMul(b *testing.B) {
	r := stats.NewRNG(1)
	for _, sz := range benchMatMulSizes {
		a := New(sz.m, sz.k).Randn(r, 1)
		bb := New(sz.k, sz.n).Randn(r, 1)
		b.Run(fmt.Sprintf("%dx%dx%d", sz.m, sz.k, sz.n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatMul(a, bb)
			}
		})
	}
}

// BenchmarkMatMulABT times the inference GEMM on the generic sizes and
// on the paper-scale adapted forward's four products at the row counts
// offline synthesis (64) and the served path (1, 2, 4, 8, 9, 16, 18:
// a guided flow is two rows, a probe beside an 8-flow request 18)
// produce, and at 3, 5 and 12, the rows on either side of the line
// between the two vector tiles and eight plus a short block, reporting
// GFLOP/s so tiles compare across shapes. One matrix stays in L2 here;
// a served step cycles three (internal/lora's BenchmarkStepSmallBatch). Names are
// rows, then the weight's shape as out × in — C[rows,out] =
// A[rows,in]·B[out,in]ᵀ — spelled out, because 2176×192 and 192×2176
// are both in the list.
func BenchmarkMatMulABT(b *testing.B) {
	r := stats.NewRNG(2)
	for _, sz := range slices.Concat(benchMatMulSizes, abtPaperShapes(1, 2, 3, 4, 5, 8, 9, 12, 16, 18, 64)) {
		a := New(sz.m, sz.k).Randn(r, 1)
		bb := New(sz.n, sz.k).Randn(r, 1)
		c := New(sz.m, sz.n)
		b.Run(fmt.Sprintf("r%d_out%d_in%d", sz.m, sz.n, sz.k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatMulABTInto(c, a, bb)
			}
			flops := 2 * float64(sz.m) * float64(sz.k) * float64(sz.n)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflop/s")
		})
	}
}

func BenchmarkMatMulATB(b *testing.B) {
	r := stats.NewRNG(3)
	for _, sz := range benchMatMulSizes {
		a := New(sz.k, sz.m).Randn(r, 1)
		bb := New(sz.k, sz.n).Randn(r, 1)
		b.Run(fmt.Sprintf("%dx%dx%d", sz.m, sz.k, sz.n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatMulATB(a, bb)
			}
		})
	}
}

// BenchmarkShardDispatch is the cost of one dispatch with nothing to
// do: publish a job, claim its chunks beside the helpers, wait for the
// last one. It is the number minParallelWork is sized against, and it
// must not allocate.
func BenchmarkShardDispatch(b *testing.B) {
	var sink atomic.Int64
	body := func(lo, hi int) { sink.Add(int64(hi - lo)) }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Shard(1024, body)
	}
}
