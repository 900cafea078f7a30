package diffusion

import (
	"math"
	"strings"
	"testing"

	"trafficdiff/internal/stats"
	"trafficdiff/internal/tensor"
)

// TestTrainConfigValidation table-tests the config checks: a negative
// or NaN learning rate would silently train away from (or never
// toward) the minimum, and an out-of-range DropCond skews the
// classifier-free-guidance mix, so all of them must error loudly.
func TestTrainConfigValidation(t *testing.T) {
	r := stats.NewRNG(1)
	model := NewMLPDenoiser(r, 4, 8, 16, 2)
	sched := NewSchedule(ScheduleLinear, 10)
	set := tinySet(4, 8)
	base := TrainConfig{Steps: 1, Batch: 1, LR: 1e-3, Params: model.Params()}

	cases := []struct {
		name    string
		mutate  func(*TrainConfig)
		wantErr string
	}{
		{"valid", func(c *TrainConfig) {}, ""},
		{"valid DropCond 0", func(c *TrainConfig) { c.DropCond = 0 }, ""},
		{"valid DropCond 1", func(c *TrainConfig) { c.DropCond = 1 }, ""},
		{"zero LR", func(c *TrainConfig) { c.LR = 0 }, "LR"},
		{"negative LR", func(c *TrainConfig) { c.LR = -1e-3 }, "LR"},
		{"NaN LR", func(c *TrainConfig) { c.LR = math.NaN() }, "LR"},
		{"infinite LR", func(c *TrainConfig) { c.LR = math.Inf(1) }, "LR"},
		{"negative DropCond", func(c *TrainConfig) { c.DropCond = -0.1 }, "DropCond"},
		{"DropCond above 1", func(c *TrainConfig) { c.DropCond = 1.01 }, "DropCond"},
		{"NaN DropCond", func(c *TrainConfig) { c.DropCond = math.NaN() }, "DropCond"},
		{"negative ClipNorm", func(c *TrainConfig) { c.ClipNorm = -1 }, "ClipNorm"},
		{"NaN ClipNorm", func(c *TrainConfig) { c.ClipNorm = math.NaN() }, "ClipNorm"},
		{"zero Steps", func(c *TrainConfig) { c.Steps = 0 }, "Steps"},
		{"zero Batch", func(c *TrainConfig) { c.Batch = 0 }, "Steps"},
		{"no Params", func(c *TrainConfig) { c.Params = nil }, "Params"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			_, err := Train(model, sched, set, cfg)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("config %+v should be rejected", cfg)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestScheduleTrainingTablesBitExact extends the PR-4 table-equivalence
// guarantee to the training path: Trainer.Step noises minibatches with
// sched.SqrtAlphaBar / sched.SqrtOneMinusAlphaBar, which must be
// bit-identical to the inline √ᾱ_t / √(1-ᾱ_t) expressions the loop
// previously evaluated per sample — otherwise the refactor would have
// changed every training trajectory.
func TestScheduleTrainingTablesBitExact(t *testing.T) {
	for _, kind := range []ScheduleKind{ScheduleLinear, ScheduleCosine} {
		for _, T := range []int{2, 40, 120, 1000} {
			s := NewSchedule(kind, T)
			for tt := 0; tt < T; tt++ {
				if got, want := s.SqrtAlphaBar[tt], math.Sqrt(s.AlphaBar[tt]); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v T=%d: SqrtAlphaBar[%d] = %x, inline sqrt = %x", kind, T, tt, math.Float64bits(got), math.Float64bits(want))
				}
				if got, want := s.SqrtOneMinusAlphaBar[tt], math.Sqrt(1-s.AlphaBar[tt]); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v T=%d: SqrtOneMinusAlphaBar[%d] = %x, inline sqrt = %x", kind, T, tt, math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
	}
}

// TestNonFiniteLossAbort drives training into divergence with an
// enormous learning rate and checks the abort contract: the error is
// surfaced and names the step, the partial loss curve (finite entries
// only) is returned.
func TestNonFiniteLossAbort(t *testing.T) {
	r := stats.NewRNG(4)
	model := NewMLPDenoiser(r, 4, 8, 32, 2)
	sched := NewSchedule(ScheduleCosine, 30)
	losses, err := Train(model, sched, tinySet(4, 8), TrainConfig{
		Steps: 400, Batch: 8, LR: 1e18, Seed: 6, Params: model.Params(),
	})
	if err == nil {
		t.Fatal("LR=1e18 should produce a non-finite loss")
	}
	if !strings.Contains(err.Error(), "non-finite loss at step") {
		t.Fatalf("unexpected error: %v", err)
	}
	if len(losses) == 0 || len(losses) >= 400 {
		t.Fatalf("expected a partial loss curve, got %d entries", len(losses))
	}
	for i, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("returned loss curve has non-finite entry at %d", i)
		}
	}

}

// TestTrainerProgressHook checks the per-step report stream: one call
// per step in order, finite losses matching the returned curve, a
// positive gradient norm, and no effect on the trained weights (the
// hook is observation-only, so checkpoints with and without a hook
// stay byte-identical).
func TestTrainerProgressHook(t *testing.T) {
	const steps = 12
	run := func(hook ProgressFunc) []float32 {
		r := stats.NewRNG(8)
		model := NewMLPDenoiser(r, 4, 8, 24, 2)
		sched := NewSchedule(ScheduleCosine, 20)
		if _, err := Train(model, sched, tinySet(4, 8), TrainConfig{
			Steps: steps, Batch: 4, LR: 5e-3, ClipNorm: 5, Seed: 2, Params: model.Params(), Progress: hook,
		}); err != nil {
			t.Fatal(err)
		}
		var flat []float32
		for _, p := range model.Params() {
			flat = append(flat, p.X.Data...)
		}
		return flat
	}

	var got []Progress
	withHook := run(func(p Progress) { got = append(got, p) })
	if len(got) != steps {
		t.Fatalf("hook called %d times, want %d", len(got), steps)
	}
	for i, p := range got {
		if p.Step != i {
			t.Fatalf("report %d has step %d", i, p.Step)
		}
		if math.IsNaN(p.Loss) || p.Loss <= 0 {
			t.Fatalf("report %d has loss %v", i, p.Loss)
		}
		if p.GradNorm <= 0 {
			t.Fatalf("report %d has grad norm %v", i, p.GradNorm)
		}
		if p.StepsPerSec < 0 {
			t.Fatalf("report %d has steps/s %v", i, p.StepsPerSec)
		}
	}

	without := run(nil)
	if len(withHook) != len(without) {
		t.Fatal("param layouts differ")
	}
	for i := range without {
		if math.Float32bits(withHook[i]) != math.Float32bits(without[i]) {
			t.Fatalf("param %d differs with/without progress hook", i)
		}
	}
}

// BenchmarkDiffusionTrainStep measures one optimizer step of a
// denoiser at the CPU experiments' shape: 16x136 images, hidden width
// 128, batch 8.
func BenchmarkDiffusionTrainStep(b *testing.B) {
	r := stats.NewRNG(1)
	model := NewMLPDenoiser(r, 16, 136, 128, 4)
	sched := NewSchedule(ScheduleCosine, 80)
	set := &TrainSet{}
	for i := 0; i < 8; i++ {
		set.Images = append(set.Images, tensor.New(1, 16, 136).Randn(r, 1))
		set.Labels = append(set.Labels, i%4)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(model, sched, set, TrainConfig{
			Steps: 1, Batch: 8, LR: 1e-3, Seed: uint64(i), Params: model.Params(),
		}); err != nil {
			b.Fatal(err)
		}
	}
}
