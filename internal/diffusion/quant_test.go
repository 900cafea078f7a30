package diffusion

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"trafficdiff/internal/stats"
)

func quantTestModel(h, w int) *MLPDenoiser {
	r := stats.NewRNG(31)
	m := NewMLPDenoiser(r, h, w, 64, 2)
	m.OutLayer().W.X.Randn(r, 0.05)
	return m
}

// TestQuantizedSampleDeterministicAcrossWorkers pins the quantized
// path to the same determinism contract the fp32 sampler has: at any
// GOMAXPROCS, int8 sampling is bit-identical. The int8 kernels shard
// like the fp32 ones (one sequential dot per output element), so this
// holds by construction — the test keeps it that way.
func TestQuantizedSampleDeterministicAcrossWorkers(t *testing.T) {
	m := quantTestModel(8, 16)
	m.Quantize()
	if m.Precision() != PrecisionInt8 {
		t.Fatal("Quantize did not switch precision")
	}
	sched := NewSchedule(ScheduleCosine, 40)
	cfg := SampleConfig{Class: 0, N: 4, GuidanceScale: 2, DDIMSteps: 8, Seed: 9}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	ref, err := Sample(m, sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		got, err := Sample(m, sched, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.Data {
			if got.Data[i] != ref.Data[i] {
				t.Fatalf("GOMAXPROCS=%d: element %d differs: %v vs %v", procs, i, got.Data[i], ref.Data[i])
			}
		}
	}
}

// TestQuantizeUnquantizeRestoresFP32 asserts the revert contract that
// SetPrecision("off") relies on: quantize → unquantize leaves sampling
// bit-identical to a model that was never quantized.
func TestQuantizeUnquantizeRestoresFP32(t *testing.T) {
	m := quantTestModel(8, 16)
	sched := NewSchedule(ScheduleCosine, 40)
	cfg := SampleConfig{Class: 1, N: 3, GuidanceScale: 2, DDIMSteps: 8, Seed: 17}

	ref, err := Sample(m, sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Quantize()
	m.Unquantize()
	if m.Precision() != PrecisionFP32 {
		t.Fatal("Unquantize did not restore fp32")
	}
	got, err := Sample(m, sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Data {
		if got.Data[i] != ref.Data[i] {
			t.Fatalf("element %d: post-unquantize %v != never-quantized %v", i, got.Data[i], ref.Data[i])
		}
	}
}

// TestQuantizedSampleTracksFP32 bounds the int8 path's drift from
// fp32 on a full DDIM run: per-element error stays small relative to
// the output scale. The bound is loose (error compounds across steps);
// the fidelity gate proper lives in eval's frontier sweep.
func TestQuantizedSampleTracksFP32(t *testing.T) {
	m := quantTestModel(8, 16)
	sched := NewSchedule(ScheduleCosine, 40)
	cfg := SampleConfig{Class: 0, N: 4, GuidanceScale: 2, DDIMSteps: 16, Seed: 5}

	ref, err := Sample(m, sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Quantize()
	got, err := Sample(m, sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var maxDiff, scale float64
	for i := range ref.Data {
		d := math.Abs(float64(got.Data[i]) - float64(ref.Data[i]))
		if d > maxDiff {
			maxDiff = d
		}
		if a := math.Abs(float64(ref.Data[i])); a > scale {
			scale = a
		}
	}
	if maxDiff > 0.05*scale+0.02 {
		t.Fatalf("int8 sample drifts %.4f from fp32 (output scale %.4f)", maxDiff, scale)
	}
}

// TestFewStepBudgets runs every frontier step budget end to end on the
// quantized path — each must produce finite output of the right shape.
func TestFewStepBudgets(t *testing.T) {
	m := quantTestModel(8, 16)
	m.Quantize()
	sched := NewSchedule(ScheduleCosine, 64)
	for _, steps := range []int{4, 8, 16} {
		x, err := Sample(m, sched, SampleConfig{Class: 0, N: 2, GuidanceScale: 2, DDIMSteps: steps, Seed: 3})
		if err != nil {
			t.Fatalf("steps=%d: %v", steps, err)
		}
		if x.Shape[0] != 2 || x.Shape[2] != 8 || x.Shape[3] != 16 {
			t.Fatalf("steps=%d: shape %v", steps, x.Shape)
		}
		for i, v := range x.Data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("steps=%d: non-finite output at %d", steps, i)
			}
		}
	}
}

// TestDDIMTableConcurrent hammers the memoized table from many
// goroutines mixing first-use and cached step counts. Run under -race
// it proves the ddimMu discipline; the slice-identity check proves
// every caller gets the same memoized plan (no torn rebuilds).
func TestDDIMTableConcurrent(t *testing.T) {
	sched := NewSchedule(ScheduleCosine, 64)
	budgets := []int{4, 8, 10, 16, 32}
	type plan struct {
		seq  []int
		coef []DDIMCoeff
	}
	first := make([]plan, len(budgets))
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				b := budgets[(g+iter)%len(budgets)]
				seq, coef := sched.DDIMTable(b)
				if len(seq) != b || len(coef) != b {
					t.Errorf("DDIMTable(%d): got %d steps, %d coeffs", b, len(seq), len(coef))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for i, b := range budgets {
		seq, coef := sched.DDIMTable(b)
		first[i] = plan{seq, coef}
		seq2, coef2 := sched.DDIMTable(b)
		if &seq[0] != &seq2[0] || &coef[0] != &coef2[0] {
			t.Fatalf("DDIMTable(%d) rebuilt instead of memoizing", b)
		}
	}
}

// BenchmarkSampleBatchedDDIM64 is the fp32/64-step reference point of
// the quantization frontier: full precision at the paper's canonical
// DDIM budget, the point BENCH_quant's speedup column is relative to.
func BenchmarkSampleBatchedDDIM64(b *testing.B) {
	model, sched := benchModel(b)
	const n = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sample(model, sched, SampleConfig{
			Class: 0, N: n, GuidanceScale: 2, DDIMSteps: 64, Seed: uint64(i + 1),
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "flows/s")
}

// BenchmarkSampleBatchedDDIMInt8 measures the tentpole configuration:
// int8 weights at an 8-step DDIM budget.
func BenchmarkSampleBatchedDDIMInt8(b *testing.B) {
	model, sched := benchModel(b)
	model.Quantize()
	const n = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sample(model, sched, SampleConfig{
			Class: 0, N: n, GuidanceScale: 2, DDIMSteps: 8, Seed: uint64(i + 1),
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "flows/s")
}
