package lora

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"trafficdiff/internal/diffusion"
	"trafficdiff/internal/nn"
	"trafficdiff/internal/stats"
	"trafficdiff/internal/tensor"
)

// These tests pin the shared-trunk guided forward (the Trunk, Head and
// ControlFeatures methods of diffusion.Denoiser) for both models — the
// base MLP and the LoRA-adapted MLP — against the plain two-forward
// path, byte for byte. They live here because this package sees both
// models.

// splitModel builds a base MLP (hidden ≠ H·W, so a control-feature row
// and an image row can never be confused) with real weights in every
// zero-initialized layer, and its adapted wrapper.
func splitModel(r *stats.RNG, h, w, hidden int) (*diffusion.MLPDenoiser, *AdaptedMLP) {
	base := diffusion.NewMLPDenoiser(r, h, w, hidden, 2)
	base.OutLayer().W.X.Randn(r, 0.05)
	base.CtrlProjLayer().W.X.Randn(r, 0.05)
	base.CtrlProjLayer().B.X.Randn(r, 0.05)
	ad := NewAdaptedMLP(r, base, 2, 4, 2)
	for _, a := range []*Adapter{ad.XProj, ad.Hid, ad.Out} {
		a.B.X.Randn(r, 0.1)
	}
	return base, ad
}

func requireSameBits(t *testing.T, label string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %x, want %x", label, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

func noGradTape() *nn.Tape {
	tp := nn.NewTape()
	tp.SetNoGrad(true)
	return tp
}

// TestSplitForwardMatchesPlainPair: the trunk once, the head once over
// the conditional ‖ unconditional class rows with both halves reading
// the same n trunk rows, and the control projected one row at a time,
// give exactly the bytes of two plain Forward calls.
func TestSplitForwardMatchesPlainPair(t *testing.T) {
	r := stats.NewRNG(61)
	h, w := 4, 8
	d := h * w
	base, ad := splitModel(r, h, w, 24)
	const n = 3
	x := tensor.New(n, 1, h, w).Randn(r, 1)
	control := tensor.New(n, 1, h, w).Randn(r, 1) // a different image per row
	steps := []int{5, 0, 11}
	classC := []int{1, 0, 1}

	type named struct {
		name  string
		model diffusion.Denoiser
	}
	run := func(t *testing.T, m named) {
		classU := []int{m.model.NullClass(), m.model.NullClass(), m.model.NullClass()}
		for _, ctl := range []*tensor.Tensor{nil, control} {
			label := fmt.Sprintf("%s/ctl=%v", m.name, ctl != nil)
			tp := noGradTape()
			wantC := m.model.Forward(tp, nn.NewV(x), steps, classC, ctl).X.Data
			wantU := m.model.Forward(tp, nn.NewV(x), steps, classU, ctl).X.Data

			tp = noGradTape()
			hv, skip := m.model.Trunk(tp, nn.NewV(x), steps)
			var ctrl *nn.V
			if ctl != nil {
				// Row by row, as Scheduler.Admit projects it.
				batched := m.model.ControlFeatures(tp, ctl)
				hidden := batched.X.Shape[1]
				feats := tensor.New(n, hidden)
				for i := 0; i < n; i++ {
					row := m.model.ControlFeatures(tp, tensor.FromSlice(ctl.Data[i*d:(i+1)*d], 1, d))
					copy(feats.Data[i*hidden:], row.X.Data)
				}
				requireSameBits(t, label+" control features", feats.Data, batched.X.Data)
				ctrl = tp.Input(feats)
			}
			eps := m.model.Head(tp, hv, skip, append(append([]int(nil), classC...), classU...), ctrl)
			if got := eps.X.Shape; len(got) != 4 || got[0] != 2*n || got[2] != h || got[3] != w {
				t.Fatalf("%s: head output shape %v", label, got)
			}
			requireSameBits(t, label+" conditional half", eps.X.Data[:n*d], wantC)
			requireSameBits(t, label+" unconditional half", eps.X.Data[n*d:], wantU)
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		for _, m := range []named{{"mlp/fp32", base}, {"adapted/fp32", ad}} {
			t.Run(fmt.Sprintf("procs=%d/%s", procs, m.name), func(t *testing.T) { run(t, m) })
		}
	}
}

// TestSplitSchedulerMatchesLegacy drives the scheduler's split path
// (nil override) and its plain path (the model's own Forward as the
// override) through admission churn under a step-row budget, and
// requires every flow to equal its solo run: the flow alone on a fresh
// plain-path scheduler, which shares nothing with the split. Flows mix
// classes, guided and unguided, DDPM and DDIM budgets, and — unlike the
// diffusion package's churn test — every flow has its own control
// image, so a control-feature row that fails to follow its flow
// through swapRows/dropRow/growTo changes bytes. hidden is taken on
// both sides of H·W: the feature buffer is narrower than the image
// buffer in one case and wider in the other.
func TestSplitSchedulerMatchesLegacy(t *testing.T) {
	h, w := 4, 8
	d := h * w
	sched := diffusion.NewSchedule(diffusion.ScheduleCosine, 12)
	type flowCase struct {
		seed     uint64
		class    int
		guidance float64
		ddim     int
		control  *tensor.Tensor
		out      []float32
		id       diffusion.FlowID
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, hidden := range []int{24, 40} {
		r := stats.NewRNG(uint64(70 + hidden))
		_, ad := splitModel(r, h, w, hidden)
		for _, procs := range []int{1, 8} {
			runtime.GOMAXPROCS(procs)
			for _, withCtl := range []bool{false, true} {
				for _, override := range []diffusion.ForwardFunc{nil, ad.Forward} {
					name := fmt.Sprintf("hidden=%d/procs=%d/ctl=%v/override=%v",
						hidden, procs, withCtl, override != nil)
					eng := diffusion.NewScheduler(ad, sched, override)
					eng.SetStepRows(3)
					flows := make([]*flowCase, 9)
					for i := range flows {
						f := &flowCase{
							seed:     uint64(500 + i),
							class:    i % 2,
							guidance: []float64{1, 2, 3}[i%3],
							ddim:     []int{0, 3, 4}[(i/2)%3],
							out:      make([]float32, d),
						}
						if withCtl {
							f.control = tensor.New(1, h, w).Randn(r, 1)
						}
						flows[i] = f
					}
					admit := func(f *flowCase) {
						id, err := eng.Admit(diffusion.FlowSpec{
							Class: f.class, GuidanceScale: f.guidance, DDIMSteps: f.ddim,
							RNG: stats.NewRNG(f.seed), Control: f.control, Out: f.out,
						})
						if err != nil {
							t.Fatalf("%s: admit: %v", name, err)
						}
						f.id = id
					}
					// 3 flows, two steps, 4 more (past the initial
					// 4-row buffers: growTo mid-flight), a retirement,
					// two steps, the last 2.
					for _, f := range flows[:3] {
						admit(f)
					}
					eng.Step()
					eng.Step()
					for _, f := range flows[3:7] {
						admit(f)
					}
					eng.Retire(flows[1].id)
					eng.Step()
					eng.Step()
					for _, f := range flows[7:] {
						admit(f)
					}
					for eng.Active() > 0 {
						eng.Step()
					}
					for i, f := range flows {
						if i == 1 {
							continue // retired
						}
						solo := make([]float32, d)
						ref := diffusion.NewScheduler(ad, sched, ad.Forward)
						if _, err := ref.Admit(diffusion.FlowSpec{
							Class: f.class, GuidanceScale: f.guidance, DDIMSteps: f.ddim,
							RNG: stats.NewRNG(f.seed), Control: f.control, Out: solo,
						}); err != nil {
							t.Fatal(err)
						}
						for ref.Active() > 0 {
							ref.Step()
						}
						requireSameBits(t, fmt.Sprintf("%s flow %d", name, i), f.out, solo)
					}
				}
			}
		}
	}
}

// paperScaleAdapted is the benchmarks' model: the paper's geometry
// (16×136 image, hidden 192, rank-8 adapters) with random weights, its
// T=120 schedule and one control image.
func paperScaleAdapted() (*AdaptedMLP, *diffusion.Schedule, *tensor.Tensor) {
	r := stats.NewRNG(3)
	h, w := 16, 136
	base := diffusion.NewMLPDenoiser(r, h, w, 192, 4)
	ad := NewAdaptedMLP(r, base, 8, 16, 4)
	return ad, diffusion.NewSchedule(diffusion.ScheduleCosine, 120), tensor.New(1, h, w).Randn(r, 1)
}

// sampleFlows admits one flow per seed, all of one class, guidance
// scale, DDIM budget and control image, to a fresh split-path
// diffusion.Scheduler and steps it until every flow completes,
// returning the images packed one H*W row per flow.
func sampleFlows(model diffusion.Denoiser, sched *diffusion.Schedule, class int, guidance float64, ddim int, control *tensor.Tensor, seeds []uint64) ([]float32, error) {
	h, w := model.Shape()
	d := h * w
	eng := diffusion.NewScheduler(model, sched, nil)
	out := make([]float32, len(seeds)*d)
	for i, seed := range seeds {
		if _, err := eng.Admit(diffusion.FlowSpec{
			Class: class, GuidanceScale: guidance, DDIMSteps: ddim,
			RNG: stats.NewRNG(seed), Control: control, Out: out[i*d : (i+1)*d],
		}); err != nil {
			return nil, err
		}
	}
	for eng.Active() > 0 {
		eng.Step()
	}
	return out, nil
}

// BenchmarkSampleAdapted times one 64-flow batch on one scheduler (the
// split path) on the paper-scale adapted model (16×136 image, hidden
// 192, rank 8, control on, guidance 2, 15 DDIM steps of T=120): the
// benchmark's offline_bulk shape on a single step loop.
func BenchmarkSampleAdapted(b *testing.B) {
	ad, sched, control := paperScaleAdapted()
	const n = 64
	seeds := make([]uint64, n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := range seeds {
			seeds[j] = uint64(i*n + j + 1)
		}
		if _, err := sampleFlows(ad, sched, 1, 2, 15, control, seeds); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "flows/s")
}

// BenchmarkStepSmallBatch times what a served request asks of the
// sampler: one or two guided flows at a time through a long-lived
// diffusion.Scheduler on its split path, on the paper-scale adapted
// model (16×136 image, hidden 192, rank 8, control on, guidance 2, 4
// DDIM steps of T=120). A step is a one- or two-row trunk and a head of
// twice that, over three 1.67 MB weight matrices that do not all fit in
// L2 together — what the GEMM micro-benchmark, one matrix back to
// back, does not show.
func BenchmarkStepSmallBatch(b *testing.B) {
	ad, sched, control := paperScaleAdapted()
	h, w := ad.Shape()
	for _, n := range []int{1, 2} {
		b.Run(fmt.Sprintf("flows=%d", n), func(b *testing.B) {
			eng := diffusion.NewScheduler(ad, sched, nil)
			out := make([]float32, n*h*w)
			steps := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for f := 0; f < n; f++ {
					if _, err := eng.Admit(diffusion.FlowSpec{
						Class: 1, GuidanceScale: 2, DDIMSteps: 4, Control: control,
						RNG: stats.NewRNG(uint64(i*n + f + 1)), Out: out[f*h*w : (f+1)*h*w],
					}); err != nil {
						b.Fatal(err)
					}
				}
				for eng.Active() > 0 {
					eng.Step()
					steps++
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "flows/s")
			b.ReportMetric(b.Elapsed().Seconds()*1e6/float64(steps), "µs/step")
		})
	}
}

// TestAdaptedStepAllocatesNothing is diffusion's steady-state
// allocation test on the model the engine serves: a warm scheduler
// over the LoRA-adapted denoiser of the paper geometry (16×136, hidden
// 192, rank 8), guided and control-conditioned, stepping under
// tensor.Serial, makes no allocation at 1, 2, 16 or 32 rows.
func TestAdaptedStepAllocatesNothing(t *testing.T) {
	r := stats.NewRNG(31)
	h, w := 16, 136
	base := diffusion.NewMLPDenoiser(r, h, w, 192, 4)
	model := NewAdaptedMLP(r, base, 8, 16, 4)
	sched := diffusion.NewSchedule(diffusion.ScheduleCosine, 120)
	control := tensor.New(1, h, w).Randn(r, 1)
	for _, n := range []int{1, 2, 16, 32} {
		eng := diffusion.NewScheduler(model, sched, nil)
		for i := 0; i < n; i++ {
			if _, err := eng.Admit(diffusion.FlowSpec{
				Class: i % 4, GuidanceScale: 2, DDIMSteps: 60, RNG: stats.NewRNG(uint64(i + 1)),
				Control: control, Out: make([]float32, h*w),
			}); err != nil {
				t.Fatal(err)
			}
		}
		step := func() { tensor.Serial(func() { eng.Step() }) }
		step()
		if avg := testing.AllocsPerRun(10, step); avg != 0 {
			t.Errorf("%d rows: a steady-state Step allocates %.1f times, want 0", n, avg)
		}
	}
}
