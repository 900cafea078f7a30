package diffusion_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"trafficdiff/internal/diffusion"
	"trafficdiff/internal/lora"
	"trafficdiff/internal/nn"
	"trafficdiff/internal/stats"
	"trafficdiff/internal/tensor"
)

// resumeSet builds a small two-class training set.
func resumeSet(h, w int) *diffusion.TrainSet {
	set := &diffusion.TrainSet{}
	for rep := 0; rep < 6; rep++ {
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

// resumeFixture deterministically builds the model (and, with freeze,
// the LoRA adapter trained against the frozen base) plus its training
// config; calling it twice yields bit-identical starting points, which
// stands in for "restart the process and reconstruct the model from
// the same seed".
func resumeFixture(freeze bool, batch int, steps int) (diffusion.Denoiser, diffusion.TrainConfig) {
	r := stats.NewRNG(31)
	base := diffusion.NewMLPDenoiser(r, 4, 8, 24, 2)
	cfg := diffusion.TrainConfig{
		Steps: steps, Batch: batch, LR: 5e-3, ClipNorm: 5,
		Seed: 17, DropCond: 0.2, Params: base.Params(),
	}
	if !freeze {
		return base, cfg
	}
	ad := lora.NewAdaptedMLP(stats.NewRNG(32), base, 4, 8, 2)
	cfg.Params = ad.Params()
	return ad, cfg
}

// TestTrainerResumeBitIdentity is the resume contract's property test:
// for every combination of kill step k, batch size, and trained set
// (the whole model, or LoRA adapters on a frozen base), checkpointing a
// run at step k, rebuilding the trainer from scratch, restoring, and
// training to completion must produce a final checkpoint
// byte-identical to the uninterrupted run's, and bit-identical final
// weights. `make verify-determinism` and CI run this under -race.
func TestTrainerResumeBitIdentity(t *testing.T) {
	const steps = 8
	sched := diffusion.NewSchedule(diffusion.ScheduleCosine, 25)
	set := resumeSet(4, 8)

	for _, freeze := range []bool{false, true} {
		for _, batch := range []int{2, 5} {
			for _, k := range []int{0, 1, 3, steps - 1, steps} {
				name := fmt.Sprintf("freeze=%t/batch=%d/k=%d", freeze, batch, k)
				t.Run(name, func(t *testing.T) {
					// Uninterrupted run, capturing the checkpoint it
					// would have written at step k and at completion.
					modelA, cfgA := resumeFixture(freeze, batch, steps)
					trA, err := diffusion.NewTrainer(modelA, sched, set, cfgA)
					if err != nil {
						t.Fatal(err)
					}
					var atK, finalA bytes.Buffer
					for !trA.Done() {
						if trA.StepCount() == k {
							if err := trA.Checkpoint(&atK); err != nil {
								t.Fatal(err)
							}
						}
						if err := trA.Step(); err != nil {
							t.Fatal(err)
						}
					}
					if trA.StepCount() == k {
						if err := trA.Checkpoint(&atK); err != nil {
							t.Fatal(err)
						}
					}
					if err := trA.Checkpoint(&finalA); err != nil {
						t.Fatal(err)
					}

					// Killed-and-resumed run: fresh process state,
					// restore at k, train the remaining steps.
					modelB, cfgB := resumeFixture(freeze, batch, steps)
					trB, err := diffusion.NewTrainer(modelB, sched, set, cfgB)
					if err != nil {
						t.Fatal(err)
					}
					if err := trB.Restore(bytes.NewReader(atK.Bytes())); err != nil {
						t.Fatal(err)
					}
					if got := trB.StepCount(); got != k {
						t.Fatalf("restored step = %d, want %d", got, k)
					}
					for !trB.Done() {
						if err := trB.Step(); err != nil {
							t.Fatal(err)
						}
					}
					var finalB bytes.Buffer
					if err := trB.Checkpoint(&finalB); err != nil {
						t.Fatal(err)
					}

					if !bytes.Equal(finalA.Bytes(), finalB.Bytes()) {
						t.Fatal("final checkpoints differ between uninterrupted and resumed runs")
					}
					// Loss curves match exactly.
					la, lb := trA.Losses(), trB.Losses()
					if len(la) != len(lb) {
						t.Fatalf("loss curves have %d vs %d entries", len(la), len(lb))
					}
					for i := range la {
						if math.Float64bits(la[i]) != math.Float64bits(lb[i]) {
							t.Fatalf("loss %d differs: %v vs %v", i, la[i], lb[i])
						}
					}
					// Final weights match bit-for-bit.
					if len(cfgA.Params) != len(cfgB.Params) {
						t.Fatal("param sets differ")
					}
					for i := range cfgA.Params {
						a, b := cfgA.Params[i].X.Data, cfgB.Params[i].X.Data
						for j := range a {
							if math.Float32bits(a[j]) != math.Float32bits(b[j]) {
								t.Fatalf("trained param %d elem %d differs after resume", i, j)
							}
						}
					}
				})
			}
		}
	}
}

// TestTrainerRestoreValidation covers the refuse-to-resume paths: a
// checkpoint of one trained set cannot restore into a trainer of
// another, a checkpoint beyond the configured step budget is rejected,
// and weights-only checkpoints are not resumable.
func TestTrainerRestoreValidation(t *testing.T) {
	sched := diffusion.NewSchedule(diffusion.ScheduleCosine, 25)
	set := resumeSet(4, 8)

	mkTrainer := func(freeze bool, steps int) *diffusion.Trainer {
		model, cfg := resumeFixture(freeze, 2, steps)
		tr, err := diffusion.NewTrainer(model, sched, set, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}

	// Checkpoint from a whole-model run at step 2.
	src := mkTrainer(false, 4)
	for i := 0; i < 2; i++ {
		if err := src.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var ck bytes.Buffer
	if err := src.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}

	if err := mkTrainer(true, 4).Restore(bytes.NewReader(ck.Bytes())); err == nil {
		t.Error("whole-model checkpoint should not restore into an adapter trainer")
	}
	if err := mkTrainer(false, 1).Restore(bytes.NewReader(ck.Bytes())); err == nil {
		t.Error("checkpoint beyond the step budget should be rejected")
	}
	if err := mkTrainer(false, 4).Restore(bytes.NewReader(ck.Bytes())); err != nil {
		t.Errorf("matching trainer should restore: %v", err)
	}

	// Weights-only checkpoints carry no resumable state.
	_, cfg := resumeFixture(false, 2, 4)
	var weightsOnly bytes.Buffer
	if err := nn.SaveParams(&weightsOnly, cfg.Params); err != nil {
		t.Fatal(err)
	}
	if err := mkTrainer(false, 4).Restore(bytes.NewReader(weightsOnly.Bytes())); err == nil {
		t.Error("weights-only checkpoint should not be resumable")
	}
}
