package diffusion

import (
	"math"
	"testing"
	"testing/quick"

	"trafficdiff/internal/nn"
	"trafficdiff/internal/stats"
	"trafficdiff/internal/tensor"
)

func TestScheduleInvariants(t *testing.T) {
	for _, kind := range []ScheduleKind{ScheduleLinear, ScheduleCosine} {
		s := NewSchedule(kind, 100)
		prev := 1.0
		for i := 0; i < s.T; i++ {
			if s.Beta[i] <= 0 || s.Beta[i] >= 1 {
				t.Fatalf("%v: beta[%d] = %v out of (0,1)", kind, i, s.Beta[i])
			}
			if s.AlphaBar[i] <= 0 || s.AlphaBar[i] > 1 {
				t.Fatalf("%v: alphaBar[%d] = %v out of (0,1]", kind, i, s.AlphaBar[i])
			}
			if s.AlphaBar[i] >= prev {
				t.Fatalf("%v: alphaBar not strictly decreasing at %d", kind, i)
			}
			prev = s.AlphaBar[i]
			if math.Abs(s.Alpha[i]-(1-s.Beta[i])) > 1e-12 {
				t.Fatalf("%v: alpha/beta inconsistent at %d", kind, i)
			}
		}
		// Near-complete noising at the end.
		if s.AlphaBar[s.T-1] > 0.2 {
			t.Errorf("%v: alphaBar[T-1] = %v, want near 0", kind, s.AlphaBar[s.T-1])
		}
		// SNR monotone decreasing.
		if s.SNR(0) <= s.SNR(s.T-1) {
			t.Errorf("%v: SNR not decreasing", kind)
		}
	}
}

func TestQuickScheduleMonotonic(t *testing.T) {
	f := func(steps uint8) bool {
		T := 2 + int(steps)%200
		s := NewSchedule(ScheduleCosine, T)
		for i := 1; i < T; i++ {
			if s.AlphaBar[i] >= s.AlphaBar[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestForwardNoiseEndpoints(t *testing.T) {
	s := NewSchedule(ScheduleCosine, 200)
	r := stats.NewRNG(1)
	x0 := tensor.New(1, 1, 4, 4)
	x0.Fill(1)
	// At t=0, x_t ≈ x0 (tiny noise).
	xt := ForwardNoise(s, x0, 0, r)
	var dist float64
	for i := range xt.Data {
		dist += math.Abs(float64(xt.Data[i] - x0.Data[i]))
	}
	if dist/float64(len(xt.Data)) > 0.2 {
		t.Errorf("t=0 forward noise too strong: mean |Δ| = %v", dist/16)
	}
	// At t=T-1, mean ≈ 0 (signal destroyed) across many draws.
	var mean float64
	const draws = 200
	for i := 0; i < draws; i++ {
		xT := ForwardNoise(s, x0, s.T-1, r)
		for _, v := range xT.Data {
			mean += float64(v)
		}
	}
	mean /= draws * 16
	if math.Abs(mean) > 0.15 {
		t.Errorf("t=T forward noise retains signal: mean = %v", mean)
	}
}

func TestDDIMSequence(t *testing.T) {
	seq := ddimSequence(100, 10)
	if len(seq) != 10 {
		t.Fatalf("len = %d", len(seq))
	}
	if seq[len(seq)-1] != 99 {
		t.Errorf("last = %d, want 99", seq[len(seq)-1])
	}
	for i := 1; i < len(seq); i++ {
		if seq[i] <= seq[i-1] {
			t.Fatal("sequence not increasing")
		}
	}
	full := ddimSequence(5, 10)
	if len(full) != 5 {
		t.Fatalf("oversampled sequence len = %d", len(full))
	}
}

// tinySet builds a two-class dataset where class 0 images are all +1
// in the left half and class 1 in the right half — trivially learnable.
func tinySet(h, w int) *TrainSet {
	set := &TrainSet{}
	for rep := 0; rep < 8; rep++ {
		for cls := 0; cls < 2; cls++ {
			im := tensor.New(1, h, w)
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					v := float32(-1)
					if (cls == 0 && x < w/2) || (cls == 1 && x >= w/2) {
						v = 1
					}
					im.Data[y*w+x] = v
				}
			}
			set.Images = append(set.Images, im)
			set.Labels = append(set.Labels, cls)
		}
	}
	return set
}

func TestTrainLossDecreases(t *testing.T) {
	r := stats.NewRNG(7)
	h, w := 4, 8
	model := NewMLPDenoiser(r, h, w, 64, 2)
	sched := NewSchedule(ScheduleCosine, 50)
	losses, err := Train(model, sched, tinySet(h, w), TrainConfig{
		Steps: 200, Batch: 8, LR: 1e-2, ClipNorm: 5, Seed: 1, DropCond: 0.1, Params: model.Params(),
	})
	if err != nil {
		t.Fatal(err)
	}
	head := avg(losses[:20])
	tail := avg(losses[len(losses)-20:])
	if tail >= head {
		t.Fatalf("loss did not decrease: head %v tail %v", head, tail)
	}
}

func avg(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestTrainValidation(t *testing.T) {
	r := stats.NewRNG(1)
	model := NewMLPDenoiser(r, 4, 4, 16, 2)
	sched := NewSchedule(ScheduleLinear, 10)
	if _, err := Train(model, sched, &TrainSet{}, TrainConfig{Steps: 1, Batch: 1, LR: 1e-3, Params: model.Params()}); err == nil {
		t.Error("empty set should fail")
	}
	bad := &TrainSet{Images: []*tensor.Tensor{tensor.New(1, 2, 2)}, Labels: []int{0}}
	if _, err := Train(model, sched, bad, TrainConfig{Steps: 1, Batch: 1, LR: 1e-3, Params: model.Params()}); err == nil {
		t.Error("wrong image shape should fail")
	}
	badLabel := &TrainSet{Images: []*tensor.Tensor{tensor.New(1, 4, 4)}, Labels: []int{5}}
	if _, err := Train(model, sched, badLabel, TrainConfig{Steps: 1, Batch: 1, LR: 1e-3, Params: model.Params()}); err == nil {
		t.Error("out-of-range label should fail")
	}
	ok := &TrainSet{Images: []*tensor.Tensor{tensor.New(1, 4, 4)}, Labels: []int{0}}
	if _, err := Train(model, sched, ok, TrainConfig{Steps: 0, Batch: 1, LR: 1e-3, Params: model.Params()}); err == nil {
		t.Error("zero steps should fail")
	}
	if _, err := Train(model, sched, ok, TrainConfig{Steps: 1, Batch: 1, LR: 1e-3}); err == nil {
		t.Error("an empty Params set should fail")
	}
}

func TestSampleClassConditioning(t *testing.T) {
	// Train on the two-half dataset, then check that class-0 samples
	// have a brighter left half and class-1 samples a brighter right
	// half — i.e. the "prompt" controls generation.
	r := stats.NewRNG(3)
	h, w := 4, 8
	model := NewMLPDenoiser(r, h, w, 96, 2)
	sched := NewSchedule(ScheduleCosine, 60)
	_, err := Train(model, sched, tinySet(h, w), TrainConfig{
		Steps: 600, Batch: 8, LR: 5e-3, ClipNorm: 5, Seed: 2, DropCond: 0.1, Params: model.Params(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sideBias := func(class int) float64 {
		out, err := sample(model, sched, SampleConfig{
			Class: class, GuidanceScale: 2, FlowSeeds: rootSeeds(9, 6),
		})
		if err != nil {
			t.Fatal(err)
		}
		var left, right float64
		d := h * w
		for i := 0; i < 6; i++ {
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					v := float64(out.Data[i*d+y*w+x])
					if x < w/2 {
						left += v
					} else {
						right += v
					}
				}
			}
		}
		return left - right
	}
	if b0 := sideBias(0); b0 <= 0 {
		t.Errorf("class 0 bias = %v, want left-bright (>0)", b0)
	}
	if b1 := sideBias(1); b1 >= 0 {
		t.Errorf("class 1 bias = %v, want right-bright (<0)", b1)
	}
}

func TestSampleDDIMFewerSteps(t *testing.T) {
	r := stats.NewRNG(4)
	model := NewMLPDenoiser(r, 4, 4, 32, 2)
	sched := NewSchedule(ScheduleCosine, 50)
	out, err := sample(model, sched, SampleConfig{Class: 0, GuidanceScale: 1, DDIMSteps: 5, FlowSeeds: []uint64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Shape[0] != 2 || out.Shape[2] != 4 {
		t.Fatalf("shape = %v", out.Shape)
	}
	for _, v := range out.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("DDIM produced non-finite output")
		}
	}
}

func TestSampleRejectsBadConfig(t *testing.T) {
	r := stats.NewRNG(5)
	model := NewMLPDenoiser(r, 4, 4, 16, 2)
	sched := NewSchedule(ScheduleLinear, 10)
	if _, err := sample(model, sched, SampleConfig{Class: 2, FlowSeeds: []uint64{1}}); err == nil {
		t.Error("null class as prompt should fail")
	}
	if _, err := sample(model, sched, SampleConfig{Class: -1, FlowSeeds: []uint64{1}}); err == nil {
		t.Error("negative class should fail")
	}
}

func TestControlInjectionStartsAsNoOp(t *testing.T) {
	// With zero-initialized control projections, supplying a control
	// image must not change the initial forward output.
	r := stats.NewRNG(7)
	model := NewMLPDenoiser(r, 4, 4, 32, 2)
	x := tensor.New(1, 1, 4, 4).Randn(stats.NewRNG(2), 1)
	ctrl := tensor.New(1, 1, 4, 4).Randn(stats.NewRNG(3), 1)

	tp := nn.NewTape()
	y1 := model.Forward(tp, nn.NewV(x.Clone()), []int{1}, []int{0}, nil)
	tp.Reset()
	tp2 := nn.NewTape()
	y2 := model.Forward(tp2, nn.NewV(x.Clone()), []int{1}, []int{0}, ctrl)
	tp2.Reset()
	for i := range y1.X.Data {
		if y1.X.Data[i] != y2.X.Data[i] {
			t.Fatal("zero-init control path altered output")
		}
	}
}

func TestScheduleString(t *testing.T) {
	if ScheduleLinear.String() != "linear" || ScheduleCosine.String() != "cosine" {
		t.Error("schedule names wrong")
	}
}
