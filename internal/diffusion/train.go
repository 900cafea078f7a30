package diffusion

import (
	"fmt"
	"io"
	"math"
	"time"

	"trafficdiff/internal/nn"
	"trafficdiff/internal/stats"
	"trafficdiff/internal/tensor"
)

// Progress is the per-step training report passed to a progress hook:
// the 0-based step just completed, its loss, the pre-clip global
// gradient norm, and the instantaneous step rate (0 on the first step
// — there is no previous step to measure against). The hook observes
// training; it must not mutate the model or the trainer.
type Progress struct {
	Step        int
	Loss        float64
	GradNorm    float64
	StepsPerSec float64
}

// ProgressFunc receives one Progress report after every optimizer step.
type ProgressFunc func(Progress)

// TrainConfig controls DDPM training.
type TrainConfig struct {
	Steps int     // optimizer steps
	Batch int     // minibatch size
	LR    float64 // Adam learning rate
	// DropCond is the probability a sample's class label is replaced
	// by the null class during training (classifier-free guidance).
	DropCond float64
	ClipNorm float64
	Seed     uint64
	// Params is the trained parameter set, in checkpoint order: the
	// model's own Params() to train it outright, or a LoRA-adapted
	// model's adapter parameters to fine-tune against a frozen base.
	// Every parameter outside it stays fixed.
	Params []*nn.V
	// Controls, when non-nil, supplies the per-class control image fed
	// to the denoiser during training (ControlNet conditioning).
	Controls map[int]*tensor.Tensor
	// Progress, when non-nil, is called after every optimizer step.
	// The hook is reporting-only: it does not participate in the
	// trainer's deterministic state, so checkpoints taken with and
	// without a hook are byte-identical.
	Progress ProgressFunc
}

// validate rejects configurations that would train incorrectly rather
// than fail loudly: an empty parameter set trains nothing, a
// non-positive or non-finite learning rate silently trains away from
// (or never toward) the minimum, and a conditioning-drop probability
// outside [0,1] skews the classifier-free-guidance mix.
func (cfg *TrainConfig) validate() error {
	if cfg.Batch <= 0 || cfg.Steps <= 0 {
		return fmt.Errorf("diffusion: non-positive Steps/Batch")
	}
	if len(cfg.Params) == 0 {
		return fmt.Errorf("diffusion: no Params to train")
	}
	if math.IsNaN(cfg.LR) || math.IsInf(cfg.LR, 0) || cfg.LR <= 0 {
		return fmt.Errorf("diffusion: LR must be positive and finite, got %v", cfg.LR)
	}
	if math.IsNaN(cfg.DropCond) || cfg.DropCond < 0 || cfg.DropCond > 1 {
		return fmt.Errorf("diffusion: DropCond must be in [0,1], got %v", cfg.DropCond)
	}
	if math.IsNaN(cfg.ClipNorm) || cfg.ClipNorm < 0 {
		return fmt.Errorf("diffusion: ClipNorm must be >= 0, got %v", cfg.ClipNorm)
	}
	return nil
}

// TrainSet is the training data: images [1,H,W] each with a class id.
type TrainSet struct {
	Images []*tensor.Tensor
	Labels []int
}

// Validate checks the set's consistency against a model shape.
func (ts *TrainSet) Validate(h, w, k int) error {
	if len(ts.Images) == 0 {
		return fmt.Errorf("diffusion: empty training set")
	}
	if len(ts.Images) != len(ts.Labels) {
		return fmt.Errorf("diffusion: %d images, %d labels", len(ts.Images), len(ts.Labels))
	}
	for i, im := range ts.Images {
		if len(im.Shape) != 3 || im.Shape[0] != 1 || im.Shape[1] != h || im.Shape[2] != w {
			return fmt.Errorf("diffusion: image %d shape %v, want [1 %d %d]", i, im.Shape, h, w)
		}
		if ts.Labels[i] < 0 || ts.Labels[i] >= k {
			return fmt.Errorf("diffusion: image %d label %d out of range [0,%d)", i, ts.Labels[i], k)
		}
	}
	return nil
}

// Trainer runs DDPM training one optimizer step at a time over
// explicit state, which is what makes mid-run checkpointing possible:
// everything the loop touches — the trained parameters, the Adam
// moments and update count, the minibatch RNG position, the loss
// curve, and the step counter — is either held here or reachable
// through Checkpoint/Restore. A Trainer restored from a checkpoint
// continues the exact same training trajectory: the final weights are
// bit-identical to an uninterrupted run.
//
// A Trainer is single-goroutine; it owns reusable minibatch and tape
// buffers that make the steady-state step allocation-free.
type Trainer struct {
	model Denoiser
	sched *Schedule
	set   *TrainSet
	cfg   TrainConfig

	opt *nn.Adam
	rng *stats.RNG

	losses []float64
	step   int

	// Minibatch buffers are allocated once and refilled every step, and
	// the tape's output arena recycles the forward pass's intermediate
	// tensors across steps — shapes repeat, so after the first step the
	// training loop is allocation-free on the hot path.
	n, d     int
	xt       *tensor.Tensor
	noise    *tensor.Tensor
	stepIDs  []int
	classIDs []int
	control  *tensor.Tensor
	xv       *nn.V
	tp       *nn.Tape

	// prevStepEnd times the previous Step for the progress hook's
	// steps/s; wall-clock never feeds back into training state.
	prevStepEnd time.Time
}

// NewTrainer validates cfg and builds a Trainer positioned at step 0.
func NewTrainer(model Denoiser, sched *Schedule, set *TrainSet, cfg TrainConfig) (*Trainer, error) {
	h, w := model.Shape()
	kReal := model.NullClass()
	if err := set.Validate(h, w, kReal); err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}

	opt := nn.NewAdam(cfg.LR, cfg.Params)
	opt.ClipNorm = cfg.ClipNorm

	n := cfg.Batch
	tr := &Trainer{
		model: model, sched: sched, set: set, cfg: cfg,
		opt: opt, rng: stats.NewRNG(cfg.Seed),
		losses: make([]float64, 0, cfg.Steps),
		n:      n, d: h * w,
		xt:       tensor.New(n, 1, h, w),
		noise:    tensor.New(n, 1, h, w),
		stepIDs:  make([]int, n),
		classIDs: make([]int, n),
		tp:       nn.NewTape(),
	}
	if cfg.Controls != nil {
		tr.control = tensor.New(n, 1, h, w)
	}
	tr.xv = nn.NewV(tr.xt)
	tr.tp.EnableReuse()
	// Everything outside cfg.Params is frozen for the trainer's life.
	tr.tp.HoldFrozen()
	return tr, nil
}

// StepCount returns the number of completed optimizer steps.
func (tr *Trainer) StepCount() int { return tr.step }

// Done reports whether the configured step budget is exhausted.
func (tr *Trainer) Done() bool { return tr.step >= tr.cfg.Steps }

// Losses returns the per-step loss curve so far. The slice is the
// trainer's own; callers must not mutate it.
func (tr *Trainer) Losses() []float64 { return tr.losses }

// Step runs one optimizer step: draw a minibatch, noise it to random
// timesteps, predict the noise, backpropagate the MSE, and update.
// A non-finite loss aborts with an error and leaves the loss curve at
// its last finite entry.
func (tr *Trainer) Step() error {
	if tr.Done() {
		return fmt.Errorf("diffusion: Step beyond configured %d steps", tr.cfg.Steps)
	}
	n, d := tr.n, tr.d
	cfg, r, sched := &tr.cfg, tr.rng, tr.sched
	for i := 0; i < n; i++ {
		idx := r.Intn(len(tr.set.Images))
		x0 := tr.set.Images[idx]
		t := r.Intn(sched.T)
		tr.stepIDs[i] = t
		tr.classIDs[i] = tr.set.Labels[idx]
		if cfg.DropCond > 0 && r.Bool(cfg.DropCond) {
			tr.classIDs[i] = tr.model.NullClass()
		}
		// The schedule's precomputed √ᾱ_t / √(1-ᾱ_t) tables hold the
		// exact float64 values this loop previously computed inline, so
		// the noising is bit-identical to the pre-table code.
		sa := float32(sched.SqrtAlphaBar[t])
		sn := float32(sched.SqrtOneMinusAlphaBar[t])
		for j := 0; j < d; j++ {
			e := float32(r.NormFloat64())
			tr.noise.Data[i*d+j] = e
			tr.xt.Data[i*d+j] = float32(sa*x0.Data[j]) + float32(sn*e)
		}
		if tr.control != nil {
			if ctrl, ok := cfg.Controls[tr.set.Labels[idx]]; ok {
				copy(tr.control.Data[i*d:(i+1)*d], ctrl.Data)
			} else {
				ctrlRow := tr.control.Data[i*d : (i+1)*d]
				for j := range ctrlRow {
					ctrlRow[j] = 0
				}
			}
		}
	}

	pred := tr.model.Forward(tr.tp, tr.xv, tr.stepIDs, tr.classIDs, tr.control)
	loss := tr.tp.MSE(pred, tr.noise)
	lv := float64(loss.X.Data[0])
	if math.IsNaN(lv) || math.IsInf(lv, 0) {
		return fmt.Errorf("diffusion: non-finite loss at step %d", tr.step)
	}
	tr.losses = append(tr.losses, lv)
	tr.tp.Backward(loss)
	var gradNorm float64
	if cfg.Progress != nil {
		gradNorm = tr.opt.GradNorm()
	}
	tr.opt.Step()
	// All tape outputs from this step are dead now; hand their
	// storage back for the next step.
	tr.tp.Recycle()
	tr.step++

	if cfg.Progress != nil {
		// Steps/s is reported to the progress hook and never feeds back
		// into weights, samples, or checkpoints.
		//tracelint:allow walltime — observation-only progress timing
		now := time.Now()
		sps := 0.0
		if !tr.prevStepEnd.IsZero() {
			if dt := now.Sub(tr.prevStepEnd).Seconds(); dt > 0 {
				sps = 1 / dt
			}
		}
		tr.prevStepEnd = now
		cfg.Progress(Progress{Step: tr.step - 1, Loss: lv, GradNorm: gradNorm, StepsPerSec: sps})
	}
	return nil
}

// Run steps the trainer to completion — the classic Train loop. On a
// non-finite loss it returns the partial loss curve with the error.
func (tr *Trainer) Run() ([]float64, error) {
	for !tr.Done() {
		if err := tr.Step(); err != nil {
			return tr.losses, err
		}
	}
	return tr.losses, nil
}

// Release drops the trained parameters' gradient buffers (see
// nn.Adam.Release) once the run is over, finished or not, so the
// trained model holds no gradients. The trainer must not Step
// afterwards; Checkpoint still works.
func (tr *Trainer) Release() { tr.opt.Release() }

// Checkpoint serializes the trainer's complete mid-run state — the
// trained parameter values plus the Adam moments, RNG position, loss
// curve and step counter — as an nn training checkpoint. A Trainer
// built with the same model/set/config and restored from this stream
// continues training bit-identically.
func (tr *Trainer) Checkpoint(w io.Writer) error {
	astep, m, v := tr.opt.State()
	st := &nn.TrainerState{
		Step:     tr.step,
		AdamStep: astep,
		AdamM:    m,
		AdamV:    v,
		RNG:      tr.rng.State(),
		Losses:   tr.losses,
	}
	return nn.SaveTraining(w, tr.opt.Params(), st)
}

// Restore loads a checkpoint written by Checkpoint into this trainer,
// which must have been built with the same model, training set and
// config. The trainer resumes from the captured step.
func (tr *Trainer) Restore(r io.Reader) error {
	st, err := nn.LoadTraining(r, tr.opt.Params())
	if err != nil {
		return err
	}
	if st.Step < 0 || st.Step > tr.cfg.Steps {
		return fmt.Errorf("diffusion: checkpoint at step %d outside configured %d steps", st.Step, tr.cfg.Steps)
	}
	if len(st.Losses) != st.Step {
		return fmt.Errorf("diffusion: checkpoint has %d losses for %d steps", len(st.Losses), st.Step)
	}
	if err := tr.opt.SetState(st.AdamStep, st.AdamM, st.AdamV); err != nil {
		return err
	}
	if err := tr.rng.SetState(st.RNG); err != nil {
		return err
	}
	tr.losses = append(tr.losses[:0], st.Losses...)
	tr.step = st.Step
	return nil
}

// Train runs DDPM training of model on set under sched and returns the
// per-step loss curve. Training minimizes E‖ε − ε_θ(√ᾱ x₀ + √(1−ᾱ) ε, t, c)‖².
// It is the single-shot form of the step-wise Trainer.
func Train(model Denoiser, sched *Schedule, set *TrainSet, cfg TrainConfig) ([]float64, error) {
	tr, err := NewTrainer(model, sched, set, cfg)
	if err != nil {
		return nil, err
	}
	defer tr.Release()
	return tr.Run()
}
