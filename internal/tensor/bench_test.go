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

// BenchmarkMatMulABT times the GEMM on the generic sizes and
// on the paper-scale adapted forward's four products at the row counts
// the served path (1, 2, 4, 8, 9, 16, 18: a guided flow is two rows, a
// probe beside an 8-flow request 18) and offline synthesis (16 and 32:
// a 16-flow piece's trunk and its guided head; 64) produce, and at 3,
// 5 and 12, the rows on either side of the line between two tiles and
// a short block, reporting GFLOP/s so tiles compare across shapes.
// Each iteration takes the next of three weight matrices, as a served
// step's products do, so no one weight stays in L2 from one iteration
// to the next where a step would not keep it. Names are rows, then the
// weight's shape as out × in — C[rows,out] = A[rows,in]·B[out,in]ᵀ —
// spelled out, because 2176×192 and 192×2176 are both in the list.
func BenchmarkMatMulABT(b *testing.B) {
	r := stats.NewRNG(2)
	for _, sz := range slices.Concat(benchMatMulSizes, abtPaperShapes(1, 2, 3, 4, 5, 8, 9, 12, 16, 18, 32, 64)) {
		a := New(sz.m, sz.k).Randn(r, 1)
		var ws [3]*Tensor
		for w := range ws {
			ws[w] = New(sz.n, sz.k).Randn(r, 1)
		}
		c := New(sz.m, sz.n)
		b.Run(fmt.Sprintf("r%d_out%d_in%d", sz.m, sz.n, sz.k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatMulABTInto(c, a, ws[i%len(ws)])
			}
			flops := 2 * float64(sz.m) * float64(sz.k) * float64(sz.n)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflop/s")
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
