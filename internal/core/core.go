// Package core implements the paper's primary contribution: the
// text-to-traffic synthesis pipeline (§3.1). A Synthesizer
//
//  1. converts real labeled flows into nprint bit matrices and renders
//     them as resolution-scaled images (red=1 / green=0 / grey=-1),
//  2. trains a base diffusion model unconditionally ("the text-to-image
//     base model"), then fine-tunes LoRA adapters plus encoded class
//     ("Type-0", "Type-1", …) word embeddings for class coverage,
//  3. derives one-shot protocol templates per class and feeds them to
//     the denoiser as ControlNet-style conditioning during sampling,
//  4. samples class-prompted images with classifier-free guidance,
//     color-processes (quantizes) them back onto {-1,0,1}, projects
//     the hard protocol constraints, and back-transforms the result
//     through nprint into replayable packets.
//
// The Stable Diffusion 1.5 base model is substituted by a from-scratch
// DDPM (see package diffusion); every other component matches the
// paper's architecture one-to-one.
package core

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"trafficdiff/internal/controlnet"
	"trafficdiff/internal/diffusion"
	"trafficdiff/internal/flow"
	"trafficdiff/internal/heuristic"
	"trafficdiff/internal/imagerep"
	"trafficdiff/internal/lora"
	"trafficdiff/internal/nprint"
	"trafficdiff/internal/packet"
	"trafficdiff/internal/stats"
	"trafficdiff/internal/tensor"
)

// Config parameterizes a Synthesizer.
type Config struct {
	// Rows is the full-resolution packet rows per flow image (the
	// paper uses up to 1024; experiments here default to 32 to stay
	// CPU-friendly). Must be divisible by DownH.
	Rows int
	// DownH and DownW are the resolution-scaling factors applied to
	// rows and bit columns; the model trains at
	// (Rows/DownH) x (1088/DownW). DownW must divide 1088; 8 keeps
	// pixel boundaries byte-aligned.
	DownH, DownW int

	// Hidden is the denoiser MLP's width.
	Hidden int

	Schedule  diffusion.ScheduleKind
	TimeSteps int

	// BaseSteps trains the unconditional base model; FineTuneSteps
	// then trains LoRA adapters + class embeddings with the base
	// frozen, and sampling always runs on the adapted model.
	BaseSteps     int
	FineTuneSteps int
	Batch         int
	LR            float64
	DropCond      float64
	ClipNorm      float64

	// LoRARank is the adapters' rank, in [1, min(Hidden, model pixels)];
	// LoRAAlpha scales their delta by LoRAAlpha/LoRARank.
	LoRARank  int
	LoRAAlpha float64

	UseControlNet bool
	// ConstantSnap pins class-invariant header bits (columns constant
	// across the one-shot example's packets) to the template value
	// after quantization — the strong form of one-shot control.
	ConstantSnap  bool
	GuidanceScale float64
	// DDIMSteps > 0 samples with DDIM at that many steps; otherwise
	// full DDPM ancestral sampling.
	DDIMSteps int

	Seed uint64
}

// DefaultConfig returns the settings used throughout the experiments:
// byte-aligned resolution scaling, cosine schedule, LoRA fine-tuning
// and ControlNet guidance enabled.
func DefaultConfig() Config {
	return Config{
		Rows: 32, DownH: 2, DownW: 8, Hidden: 192,
		Schedule: diffusion.ScheduleCosine, TimeSteps: 120,
		BaseSteps: 250, FineTuneSteps: 350, Batch: 16,
		LR: 2e-3, DropCond: 0.1, ClipNorm: 5,
		LoRARank: 8, LoRAAlpha: 16,
		UseControlNet: true, ConstantSnap: true, GuidanceScale: 2, DDIMSteps: 15,
		Seed: 1,
	}
}

// TrainingKey returns cfg with its sampler-only fields zeroed:
// DDIMSteps, GuidanceScale and ConstantSnap, which core reads only when
// it generates or edits. Configs with one key fine-tune to the same
// weights, so one trained model serves them all (see WithSampling).
func (cfg Config) TrainingKey() Config {
	cfg.DDIMSteps, cfg.GuidanceScale, cfg.ConstantSnap = 0, 0, false
	return cfg
}

// Synthesizer is the trained text-to-traffic pipeline.
//
// Once training (FineTune or Load) has completed, Generate,
// GenerateSeeded and GenerateWithFlowSeeds are safe for concurrent use:
// sampling reads model parameters, templates and distributions without
// mutating them, and the only post-construction config mutation
// (SetDDIMSteps) synchronizes with generation through mu. FineTune
// itself must not run concurrently with generation.
type Synthesizer struct {
	mu sync.RWMutex
	// ddimSteps is the only piece of configuration that mutates after
	// construction (SetDDIMSteps); every generation call merges it into
	// its config snapshot under the read lock.
	ddimSteps int // guarded by mu
	// cfg is immutable once New returns; read it freely.
	cfg     Config
	classes []string
	index   map[string]int

	base    *diffusion.MLPDenoiser
	adapted *lora.AdaptedMLP
	sched   *diffusion.Schedule

	templates map[int]*controlnet.Template
	controls  map[int]*tensor.Tensor
	// gapDists holds each class's empirical inter-arrival distribution
	// (milliseconds), fitted from the fine-tuning flows; the nprint
	// representation carries no timing, so back-transform samples
	// realistic gaps from here instead of a fixed interval.
	gapDists map[int]*heuristic.Empirical

	// genCalls counts the roots nextRoot has drawn; only nextRoot
	// touches it, atomically.
	genCalls uint64
}

// TrainReport summarizes FineTune.
type TrainReport struct {
	BaseLosses     []float64
	FineTuneLosses []float64
	// Images is the number of training images used.
	Images int
}

// New validates cfg and builds an untrained Synthesizer over the given
// class names (the "prompt vocabulary": class i is prompted as
// "Type-i", mirroring the paper's encoded prompts).
func New(cfg Config, classes []string) (*Synthesizer, error) {
	return build(cfg, classes, stats.NewRNG(cfg.Seed))
}

// maxTimeSteps bounds Config.TimeSteps: the schedule tables are
// allocated from it, and a checkpoint carries no bytes that pay for
// them.
const maxTimeSteps = 1 << 16

// CheckConfig rejects a config or class list the models cannot be built
// from and returns the model image shape (h, w). It is New's check,
// without the models.
func CheckConfig(cfg Config, classes []string) (h, w int, err error) {
	if len(classes) == 0 {
		return 0, 0, fmt.Errorf("core: need at least one class")
	}
	seen := make(map[string]bool, len(classes))
	for _, c := range classes {
		if seen[c] {
			return 0, 0, fmt.Errorf("core: duplicate class %q", c)
		}
		seen[c] = true
	}
	if cfg.Rows <= 0 || cfg.DownH <= 0 || cfg.DownW <= 0 {
		return 0, 0, fmt.Errorf("core: non-positive geometry in config")
	}
	if cfg.Rows%cfg.DownH != 0 {
		return 0, 0, fmt.Errorf("core: Rows %d not divisible by DownH %d", cfg.Rows, cfg.DownH)
	}
	if nprint.BitsPerPacket%cfg.DownW != 0 {
		return 0, 0, fmt.Errorf("core: DownW %d does not divide %d", cfg.DownW, nprint.BitsPerPacket)
	}
	if cfg.TimeSteps < 2 || cfg.TimeSteps > maxTimeSteps {
		return 0, 0, fmt.Errorf("core: TimeSteps must be in [2, %d], got %d", maxTimeSteps, cfg.TimeSteps)
	}
	if cfg.Schedule != diffusion.ScheduleLinear && cfg.Schedule != diffusion.ScheduleCosine {
		return 0, 0, fmt.Errorf("core: unknown Schedule %d", cfg.Schedule)
	}
	if cfg.Hidden <= 0 {
		return 0, 0, fmt.Errorf("core: Hidden must be positive, got %d", cfg.Hidden)
	}
	h = cfg.Rows / cfg.DownH
	w = nprint.BitsPerPacket / cfg.DownW
	// The adapters span the h*w x Hidden projections and the
	// Hidden x Hidden layer, so the pixel and hidden widths bound the
	// rank for all three.
	if err := lora.CheckRank(cfg.LoRARank, h*w, cfg.Hidden); err != nil {
		return 0, 0, fmt.Errorf("core: LoRARank: %w", err)
	}
	return h, w, nil
}

// paramValues is how many float32 values the models of an h x w
// synthesizer with cfg and k classes hold: the parameter shapes of the
// base MLP (diffusion.NewMLPDenoiser) and its adapter
// (lora.NewAdaptedMLP), in constructor order, with a bias as a 1-row
// shape. A forged config cannot overflow it: it saturates at
// math.MaxUint64.
func paramValues(cfg Config, h, w, k int) uint64 {
	if hi, _ := bits.Mul64(uint64(h), uint64(w)); hi != 0 {
		return math.MaxUint64
	}
	d, hid, r := uint64(h)*uint64(w), uint64(cfg.Hidden), uint64(cfg.LoRARank)
	t, table := uint64(diffusion.TimeEmbedDim()), uint64(k)+1
	var n uint64
	for _, shape := range [][2]uint64{
		{table, hid}, {hid, t}, {1, hid}, // class table, time projection
		{hid, d}, {1, hid}, {hid, d}, {1, hid}, // x and control projections
		{1, hid}, {1, hid}, {hid, hid}, {1, hid}, {1, hid}, {1, hid}, // norm, hidden layer, norm
		{d, hid}, {1, d}, {1, t}, {1, 1}, // output projection, skip gate
		{r, d}, {hid, r}, {r, hid}, {hid, r}, {r, hid}, {d, r}, {table, hid}, // adapters, class table
	} {
		hi, lo := bits.Mul64(shape[0], shape[1])
		sum, carry := bits.Add64(n, lo, 0)
		if hi != 0 || carry != 0 {
			return math.MaxUint64
		}
		n = sum
	}
	return n
}

// build is New with the weight-init stream passed in. Load passes nil:
// the models are then built with zero weights, because the checkpoint
// overwrites every parameter at once and drawing 1.3 M Gaussians first
// was a third of a replica's start-up time.
func build(cfg Config, classes []string, r *stats.RNG) (*Synthesizer, error) {
	h, w, err := CheckConfig(cfg, classes)
	if err != nil {
		return nil, err
	}

	s := &Synthesizer{
		cfg:       cfg,
		ddimSteps: cfg.DDIMSteps,
		classes:   append([]string(nil), classes...),
		index:     map[string]int{},
		sched:     diffusion.NewSchedule(cfg.Schedule, cfg.TimeSteps),
		templates: map[int]*controlnet.Template{},
		controls:  map[int]*tensor.Tensor{},
		gapDists:  map[int]*heuristic.Empirical{},
	}
	for i, c := range classes {
		s.index[c] = i
	}
	s.base = diffusion.NewMLPDenoiser(r, h, w, cfg.Hidden, len(classes))
	return s, nil
}

// Classes returns the prompt vocabulary.
func (s *Synthesizer) Classes() []string { return append([]string(nil), s.classes...) }

// Prompt returns the encoded prompt string for a class ("Type-3"),
// matching the paper's encoded text prompts.
func (s *Synthesizer) Prompt(class string) (string, error) {
	i, ok := s.index[class]
	if !ok {
		return "", fmt.Errorf("core: unknown class %q", class)
	}
	return fmt.Sprintf("Type-%d", i), nil
}

// ModelShape returns the training-resolution image dims.
func (s *Synthesizer) ModelShape() (h, w int) {
	return s.cfg.Rows / s.cfg.DownH, nprint.BitsPerPacket / s.cfg.DownW
}

// EncodeFlow converts one flow to a model-resolution training image
// [1,h,w]. Flows shorter than Rows pad with vacant rows.
func (s *Synthesizer) EncodeFlow(f *flow.Flow) (*tensor.Tensor, error) {
	m := nprint.FromFlow(f, s.cfg.Rows)
	im := imagerep.FromMatrix(m)
	im = imagerep.PadRows(im, s.cfg.Rows, -1)
	down, err := imagerep.Downscale(im, s.cfg.DownH, s.cfg.DownW)
	if err != nil {
		return nil, fmt.Errorf("core: encoding flow: %w", err)
	}
	return tensor.FromSlice(down.Pix, 1, down.H, down.W), nil
}

// TrainProgress is the per-step fine-tuning report passed to a
// FineTuneOptions.Progress hook.
type TrainProgress struct {
	// Phase is "base" during base-model training and "finetune" during
	// LoRA adapter training.
	Phase string
	// Step is the 0-based step just completed within the phase;
	// TotalSteps is the phase's step budget.
	Step, TotalSteps int
	Loss, GradNorm   float64
	StepsPerSec      float64
}

// FineTuneOptions controls crash-safety and observability of a
// fine-tuning run. The zero value trains exactly like FineTune always
// has: no checkpoints, no resume, no progress reports.
type FineTuneOptions struct {
	// CheckpointPath, when non-empty, periodically writes a crash-safe
	// mid-run training checkpoint to this path (atomic
	// write-temp-then-rename), every CheckpointEvery steps and once at
	// each phase boundary. A run killed at any step can be resumed
	// from the file with ResumeFrom and will converge to bit-identical
	// final weights.
	CheckpointPath string
	// CheckpointEvery is the step interval between checkpoints; values
	// <= 0 default to 50.
	CheckpointEvery int
	// ResumeFrom, when non-empty, restores the mid-run checkpoint at
	// this path and continues training from its captured step. The
	// synthesizer must have been built with the same config and
	// classes, and the training flows must be the same.
	ResumeFrom string
	// Progress, when non-nil, is called after every optimizer step.
	// Reporting-only: it does not affect the training trajectory or
	// checkpoint bytes.
	Progress func(TrainProgress)
}

// FineTune trains the pipeline on labeled flows. Every class in the
// vocabulary must have at least one flow (its one-shot ControlNet
// template comes from the first).
func (s *Synthesizer) FineTune(flowsByClass map[string][]*flow.Flow) (*TrainReport, error) {
	return s.FineTuneWithOptions(flowsByClass, FineTuneOptions{})
}

// FineTuneWithOptions is FineTune with crash-safe checkpointing,
// resume, and per-step progress reporting. See FineTuneOptions.
func (s *Synthesizer) FineTuneWithOptions(flowsByClass map[string][]*flow.Flow, opts FineTuneOptions) (*TrainReport, error) {
	// Per-class preparation (template derivation, control tensors, flow
	// encoding, gap fitting) touches only that class's flows, so classes
	// fan out across a worker pool into indexed slots; the merge below
	// runs in class order (first error in class order wins), so results
	// are identical at any GOMAXPROCS. The shared maps are written only
	// during the sequential merge.
	type classPrep struct {
		tpl    *controlnet.Template
		ctrl   *tensor.Tensor
		images []*tensor.Tensor
		labels []int
		dist   *heuristic.Empirical
		err    error
	}
	preps := make([]classPrep, len(s.classes))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for _, class := range s.classes {
		flows := flowsByClass[class]
		if len(flows) == 0 {
			return nil, fmt.Errorf("core: class %q has no training flows", class)
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(ci int, class string, flows []*flow.Flow) {
			defer wg.Done()
			defer func() { <-sem }()
			p := &preps[ci]
			// One-shot protocol template from the first example.
			tpl, err := controlnet.FromExample(nprint.FromFlow(flows[0], s.cfg.Rows))
			if err != nil {
				p.err = fmt.Errorf("core: template for %q: %w", class, err)
				return
			}
			p.tpl = tpl
			h, w := s.ModelShape()
			ctrl, err := tpl.ControlTensor(h, w, s.cfg.DownH, s.cfg.DownW)
			if err != nil {
				p.err = fmt.Errorf("core: control tensor for %q: %w", class, err)
				return
			}
			p.ctrl = ctrl

			var gaps []float64
			for _, f := range flows {
				im, err := s.EncodeFlow(f)
				if err != nil {
					p.err = err
					return
				}
				p.images = append(p.images, im)
				p.labels = append(p.labels, ci)
				for i := 1; i < len(f.Packets); i++ {
					g := f.Packets[i].Timestamp.Sub(f.Packets[i-1].Timestamp).Seconds() * 1000
					if g >= 0 {
						gaps = append(gaps, g)
					}
				}
			}
			if len(gaps) == 0 {
				gaps = []float64{2}
			}
			p.dist = heuristic.NewEmpirical(gaps)
		}(s.index[class], class, flows)
	}
	wg.Wait()

	set := &diffusion.TrainSet{}
	for ci := range preps {
		if preps[ci].err != nil {
			return nil, preps[ci].err
		}
		s.templates[ci] = preps[ci].tpl
		s.controls[ci] = preps[ci].ctrl
		s.gapDists[ci] = preps[ci].dist
		set.Images = append(set.Images, preps[ci].images...)
		set.Labels = append(set.Labels, preps[ci].labels...)
	}

	report := &TrainReport{Images: len(set.Images)}
	var controls map[int]*tensor.Tensor
	if s.cfg.UseControlNet {
		controls = s.controls
	}

	// A resume checkpoint's envelope decides which phase the trainer
	// state belongs to; the shared reader is then handed to exactly
	// that phase's trainer. Completed earlier phases are skipped —
	// their effect on the weights is part of the checkpoint.
	var env *trainEnvelope
	var resumeR io.Reader
	if opts.ResumeFrom != "" {
		f, err := os.Open(opts.ResumeFrom)
		if err != nil {
			return nil, fmt.Errorf("core: opening checkpoint: %w", err)
		}
		// Read-only file: a close failure cannot lose data.
		defer func() { _ = f.Close() }()
		br := bufio.NewReader(f)
		if env, err = s.readResume(br); err != nil {
			return nil, err
		}
		resumeR = br
	}
	phaseRestore := func(phase int) io.Reader {
		if env != nil && env.Phase == phase {
			return resumeR
		}
		return nil
	}

	if env != nil && env.Phase == phaseFineTune {
		// readResume restored the base phase's final weights.
		report.BaseLosses = env.BaseLosses
	} else if s.cfg.BaseSteps > 0 {
		// Phase 1: unconditional base training (the "pretrained base
		// model" analog — it learns generic traffic-image structure with
		// no class vocabulary).
		losses, err := s.trainPhase(s.base, set, diffusion.TrainConfig{
			Steps: s.cfg.BaseSteps, Batch: s.cfg.Batch,
			LR: s.cfg.LR, DropCond: 1.0, // always unconditional
			ClipNorm: s.cfg.ClipNorm, Seed: s.cfg.Seed + 1,
			Params: s.base.Params(), Controls: controls,
		}, phaseBase, "base", nil, opts, phaseRestore(phaseBase))
		report.BaseLosses = losses
		if err != nil {
			return report, err
		}
	}

	// Phase 2: LoRA adapters + fresh class embeddings, base frozen. The
	// adapter is installed only once it has trained, so a failed run
	// leaves the synthesizer untrained rather than sampling the base.
	r := stats.NewRNG(s.cfg.Seed + 2)
	adapted := lora.NewAdaptedMLP(r, s.base, s.cfg.LoRARank, s.cfg.LoRAAlpha, len(s.classes))
	losses, err := s.trainPhase(adapted, set, diffusion.TrainConfig{
		Steps: s.cfg.FineTuneSteps, Batch: s.cfg.Batch,
		LR: s.cfg.LR, DropCond: s.cfg.DropCond, ClipNorm: s.cfg.ClipNorm,
		Seed: s.cfg.Seed + 3, Params: adapted.Params(), Controls: controls,
	}, phaseFineTune, "finetune", report.BaseLosses, opts, phaseRestore(phaseFineTune))
	report.FineTuneLosses = losses
	if err != nil {
		return report, err
	}
	s.adapted = adapted
	return report, nil
}

// trainPhase runs one training phase step-by-step through a
// diffusion.Trainer, optionally restoring mid-run state first and
// writing a crash-safe checkpoint every opts.CheckpointEvery steps
// plus once at the phase boundary. baseLosses is the prior phase's
// completed loss curve, carried into each checkpoint's envelope so a
// resumed run still reports full history.
func (s *Synthesizer) trainPhase(model diffusion.Denoiser, set *diffusion.TrainSet, tcfg diffusion.TrainConfig, phase int, phaseName string, baseLosses []float64, opts FineTuneOptions, restore io.Reader) ([]float64, error) {
	if opts.Progress != nil {
		hook, total := opts.Progress, tcfg.Steps
		tcfg.Progress = func(p diffusion.Progress) {
			hook(TrainProgress{
				Phase: phaseName, Step: p.Step, TotalSteps: total,
				Loss: p.Loss, GradNorm: p.GradNorm, StepsPerSec: p.StepsPerSec,
			})
		}
	}
	tr, err := diffusion.NewTrainer(model, s.sched, set, tcfg)
	if err != nil {
		return nil, err
	}
	// The phase's parameters carry gradient buffers only while it runs:
	// the next phase trains other parameters against them frozen, and
	// sampling reads no gradient.
	defer tr.Release()
	if restore != nil {
		if err := tr.Restore(restore); err != nil {
			return nil, fmt.Errorf("core: restoring %s-phase trainer: %w", phaseName, err)
		}
	}
	every := opts.CheckpointEvery
	if every <= 0 {
		every = defaultCheckpointEvery
	}
	checkpointing := opts.CheckpointPath != ""
	for !tr.Done() {
		if err := tr.Step(); err != nil {
			return tr.Losses(), err
		}
		if checkpointing && !tr.Done() && tr.StepCount()%every == 0 {
			if err := s.writeTrainCheckpoint(opts.CheckpointPath, phase, baseLosses, tr); err != nil {
				return tr.Losses(), err
			}
		}
	}
	if checkpointing {
		// The phase-boundary checkpoint: resuming from it re-enters
		// here with Done() already true and proceeds straight to the
		// next phase.
		if err := s.writeTrainCheckpoint(opts.CheckpointPath, phase, baseLosses, tr); err != nil {
			return tr.Losses(), err
		}
	}
	return tr.Losses(), nil
}

// Trained reports whether FineTune has completed or Load has restored
// a checkpoint: the LoRA-adapted model that sampling runs on exists,
// and so does every class's template.
func (s *Synthesizer) Trained() bool {
	return s.adapted != nil && len(s.templates) == len(s.classes)
}

// GenerateResult carries one synthesis call's outputs and diagnostics.
type GenerateResult struct {
	Flows []*flow.Flow
	// Matrices are the quantized, projected nprint matrices (one per
	// flow) — Figure 2 renders these.
	Matrices []*nprint.Matrix
	// Repaired counts cells changed by constraint projection.
	Repaired int
	// SkippedRows counts undecodable rows dropped in back-transform.
	SkippedRows int
	// RawCompliance is the strict per-row template protocol compliance
	// before projection (a row counts only if its transport section is
	// populated and the others are fully vacant).
	RawCompliance float64
	// RawCellCompliance is the per-cell template compliance before
	// projection — a smoother diagnostic of how much structure the
	// model learned versus what projection had to repair.
	RawCellCompliance float64
	// Root is the root seed the flows were derived from (Generate and
	// GenerateSeeded): GenerateSeeded(class, n, Root) replays the call.
	Root uint64
}

// genEpoch is the fixed base timestamp stamped onto synthesized flows.
var genEpoch = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

// lookupClass resolves a class name and checks the pipeline is trained.
func (s *Synthesizer) lookupClass(class string) (int, error) {
	ci, ok := s.index[class]
	if !ok {
		return 0, fmt.Errorf("core: unknown class %q", class)
	}
	if !s.Trained() {
		return 0, fmt.Errorf("core: synthesizer not fine-tuned")
	}
	return ci, nil
}

// configSnapshot copies cfg with the live DDIM budget merged in under
// the read lock, so generation works from a consistent view even while
// SetDDIMSteps runs concurrently.
func (s *Synthesizer) configSnapshot() Config {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cfg := s.cfg
	cfg.DDIMSteps = s.ddimSteps
	return cfg
}

// Generate synthesizes n flows of the given class: prompt-conditioned
// sampling, color processing, constraint projection, back-transform.
// Each valid call draws a fresh root seed (see nextRoot) and returns
// GenerateSeeded(class, n, root), so successive calls draw distinct
// batches and any one of them replays from its result's Root.
func (s *Synthesizer) Generate(class string, n int) (*GenerateResult, error) {
	if _, err := s.lookupClass(class); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("core: n must be positive")
	}
	return s.GenerateSeeded(class, n, s.nextRoot())
}

// nextRoot draws the root seed of an unseeded call (Generate, Deblur,
// Translate): the config seed mixed with a call counter, so successive
// calls differ and a freshly loaded checkpoint replays the same
// sequence.
func (s *Synthesizer) nextRoot() uint64 {
	return s.cfg.Seed ^ (atomic.AddUint64(&s.genCalls, 1) * 0x9e3779b97f4a7c15)
}

// OutputVersion numbers the bytes a checkpoint's seeded output is made
// of. A change that alters seeded or served bytes for an unchanged
// checkpoint bumps it and re-records the golden digests in the same
// commit; traced folds it into the checkpoint coordinate routers cache
// on, so entries made by one version are never served for another.
const OutputVersion = 1

// DeriveFlowSeeds expands a request-level root seed into n per-flow
// seeds. Flow i's seed depends only on (root, i), so equal root seeds
// map to identical per-flow seeds on every replica.
func DeriveFlowSeeds(root uint64, n int) []uint64 {
	r := stats.NewRNG(root)
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = r.Uint64()
	}
	return seeds
}

// GenerateSeeded synthesizes n flows of the given class from an
// explicit root seed. Unlike Generate it does not advance internal
// state: the output is a pure function of (checkpoint, class, n, seed),
// so the same request replays bit-identically on any replica serving
// the same checkpoint.
func (s *Synthesizer) GenerateSeeded(class string, n int, seed uint64) (*GenerateResult, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: n must be positive")
	}
	res, err := s.GenerateWithFlowSeeds(class, DeriveFlowSeeds(seed, n))
	if err != nil {
		return nil, err
	}
	res.Root = seed
	return res, nil
}

// GenerateWithFlowSeeds synthesizes one flow per seed: sampling plus
// post-processing. Each flow's noise, packets and timestamps are a pure
// function of its own seed — independent of how flows are batched —
// which lets a serving layer run concurrent requests in one denoising
// batch and still answer every seeded request with bit-identical bytes
// (see Engine). The call is one Generate on a private engine with a
// step loop per usable CPU (offlineEngine): offline synthesis runs on
// the same path as serving, keeps every core busy, and steps at most
// DefaultMaxInFlight flows at a time on each loop, however many it
// makes.
func (s *Synthesizer) GenerateWithFlowSeeds(class string, flowSeeds []uint64) (*GenerateResult, error) {
	eng, err := s.offlineEngine(len(flowSeeds), usableCPUs())
	if err != nil {
		return nil, err
	}
	job, err := eng.submit(context.Background(), class, flowSeeds, nil)
	// Close at once: each loop exits, dropping its scheduler, as soon as
	// its pieces are done, so post-processing runs beside no sampler
	// state. Close returns once the post worker has answered the job.
	eng.Close()
	if err != nil {
		return nil, err
	}
	out := <-job.done
	return out.res, out.err
}

// offlineEngine starts the private engine of one offline call of n
// flows over the given number of step loops: one post worker, and a
// flow cap that cuts a loop's share of the call, ⌈n/loops⌉ flows, into
// the fewest pieces of at most DefaultMaxInFlight flows, as even as
// they come. Up to DefaultMaxInFlight·loops flows the cap is the share
// itself; a larger call is dealt in pieces of at most
// DefaultMaxInFlight flows, no loop given more of them than its share
// needs, and each loop steps one at a time. A loop keeps every
// activation of its step live in its tape arena, and the GC lets the
// heap grow to (1 + GOGC/100) times what is live, so a loop stepping
// all of its share at once would set the heap of a large call by n;
// run back to back, its pieces reuse one warm arena the size of a
// piece's step. With n = 0 the cap takes the engine default and submit
// refuses the call.
func (s *Synthesizer) offlineEngine(n, loops int) (*Engine, error) {
	share := (n + loops - 1) / loops
	pieces := max(1, (share+DefaultMaxInFlight-1)/DefaultMaxInFlight)
	return newEngine(s, EngineConfig{MaxInFlight: (share + pieces - 1) / pieces, PostWorkers: 1}, loops)
}

// control returns the ControlNet conditioning image class ci samples
// under cfg: the class's one-shot template image, or nil with
// ControlNet off.
func (s *Synthesizer) control(ci int, cfg Config) *tensor.Tensor {
	if !cfg.UseControlNet {
		return nil
	}
	return s.controls[ci]
}

// flowResult is one flow's share of a GenerateResult.
type flowResult struct {
	m        *nprint.Matrix
	fl       *flow.Flow
	skipped  int
	enforced controlnet.Enforcement
}

// flowFromSample is the per-flow half of generation: one sampled
// model-resolution image (h*w pixels) is color-processed straight into
// its full-resolution nprint matrix, the class template is enforced,
// and the rows are back-transformed into packets stamped from the
// epoch on. The timestamp stream roots at a constant offset of the
// flow's seed — independent of the noise stream, yet still a pure
// function of the seed — so the flow's bytes do not depend on its
// batch position.
func (s *Synthesizer) flowFromSample(ci int, class string, cfg Config, pix []float32, seed uint64) (flowResult, error) {
	h, w := s.ModelShape()
	m, err := imagerep.QuantizeUpscaled(pix, h, w, cfg.DownH, cfg.DownW)
	if err != nil {
		return flowResult{}, err
	}
	enforced := s.templates[ci].Enforce(m, cfg.ConstantSnap)
	pkts, skipped, err := nprint.ToPackets(m, nprint.DecodeOptions{
		Repair:   true,
		Start:    genEpoch,
		Interval: 2 * time.Millisecond,
	})
	if err != nil {
		return flowResult{}, fmt.Errorf("core: back-transform: %w", err)
	}
	s.stampTimestamps(pkts, ci, stats.NewRNG(seed^0x7ad3c1))
	return flowResult{m: m, fl: &flow.Flow{Label: class, Packets: pkts}, skipped: skipped, enforced: enforced}, nil
}

// postprocess turns the sampled model-resolution images of the flows
// with the given seeds (packed in samples, one h*w row per flow) into
// replayable flows. It is the half of generation shared by the
// continuous-batching Engine and the edits. Work is independent per
// flow: each worker owns one result slot, and the
// aggregation below runs sequentially in flow order, so the result is
// identical at any GOMAXPROCS. A lone flow runs on the caller.
func (s *Synthesizer) postprocess(ci int, class string, cfg Config, samples []float32, seeds []uint64) (*GenerateResult, error) {
	n := len(seeds)
	h, w := s.ModelShape()
	d := h * w
	slots := make([]flowResult, n)
	errs := make([]error, n)
	one := func(i int) {
		slots[i], errs[i] = s.flowFromSample(ci, class, cfg, samples[i*d:(i+1)*d], seeds[i])
	}
	if n == 1 {
		one(0)
	} else {
		sem := make(chan struct{}, runtime.GOMAXPROCS(0))
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				one(i)
			}(i)
		}
		wg.Wait()
	}

	res := &GenerateResult{Matrices: make([]*nprint.Matrix, n), Flows: make([]*flow.Flow, n)}
	var complianceSum, cellSum float64
	for i := range slots {
		if errs[i] != nil {
			return nil, errs[i]
		}
		complianceSum += slots[i].enforced.RawProtocolCompliance
		cellSum += slots[i].enforced.RawCellCompliance
		res.Repaired += slots[i].enforced.Repaired
		res.SkippedRows += slots[i].skipped
		res.Matrices[i] = slots[i].m
		res.Flows[i] = slots[i].fl
	}
	res.RawCompliance = complianceSum / float64(n)
	res.RawCellCompliance = cellSum / float64(n)
	return res, nil
}

// GenerateBalanced draws perClass flows for every class — the paper's
// recipe for a balanced synthetic dataset ("invoke the generation
// process an equal number of times for each").
func (s *Synthesizer) GenerateBalanced(perClass int) ([]*flow.Flow, error) {
	counts := map[string]int{}
	for _, c := range s.classes {
		counts[c] = perClass
	}
	return s.GenerateWithDistribution(counts)
}

// GenerateWithDistribution draws the requested number of flows per
// class ("adjust the frequency of invocation for each class to yield
// any desired distribution").
func (s *Synthesizer) GenerateWithDistribution(counts map[string]int) ([]*flow.Flow, error) {
	var out []*flow.Flow
	for _, c := range s.classes {
		n := counts[c]
		if n <= 0 {
			continue
		}
		res, err := s.Generate(c, n)
		if err != nil {
			return nil, fmt.Errorf("core: generating %q: %w", c, err)
		}
		out = append(out, res.Flows...)
	}
	return out, nil
}

// Template exposes a class's protocol template (Figure 2 diagnostics).
func (s *Synthesizer) Template(class string) (*controlnet.Template, error) {
	ci, ok := s.index[class]
	if !ok {
		return nil, fmt.Errorf("core: unknown class %q", class)
	}
	tpl, ok := s.templates[ci]
	if !ok {
		return nil, fmt.Errorf("core: class %q not fine-tuned yet", class)
	}
	return tpl, nil
}

// SetDDIMSteps adjusts the sampler's step budget after construction
// (0 restores full DDPM ancestral sampling). Training is unaffected.
// Safe to call while other goroutines generate: in-flight calls keep
// the snapshot they started with; later calls observe the new value.
func (s *Synthesizer) SetDDIMSteps(steps int) {
	s.mu.Lock()
	s.ddimSteps = steps
	s.mu.Unlock()
}

// Config returns a copy of the configuration s samples under, its live
// DDIM budget included: the starting point of a WithSampling view.
func (s *Synthesizer) Config() Config { return s.configSnapshot() }

// WithSampling returns a synthesizer that samples the trained s under
// cfg, whose TrainingKey must be s's. It shares s's weights, templates,
// controls and gap distributions, and its call counter starts at zero:
// its Generate draws exactly what s fine-tuned with cfg would.
func (s *Synthesizer) WithSampling(cfg Config) (*Synthesizer, error) {
	if !s.Trained() {
		return nil, fmt.Errorf("core: synthesizer not fine-tuned")
	}
	if cfg.TrainingKey() != s.cfg.TrainingKey() {
		return nil, fmt.Errorf("core: sampler config %+v trains other weights than %+v", cfg, s.cfg)
	}
	return &Synthesizer{
		ddimSteps: cfg.DDIMSteps, cfg: cfg, classes: s.classes, index: s.index,
		base: s.base, adapted: s.adapted, sched: s.sched,
		templates: s.templates, controls: s.controls, gapDists: s.gapDists,
	}, nil
}

// DDIMSteps reports the sampler's live step budget (0 = full DDPM
// ancestral sampling). Serving layers export it so a router can key
// response caches on the exact sampling configuration a replica runs.
func (s *Synthesizer) DDIMSteps() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ddimSteps
}

// stampTimestamps rewrites the packets' timestamps, from the epoch on,
// with gaps sampled from the class's fitted inter-arrival distribution.
// r is the flow's private stream, so flows in one call draw distinct gap
// sequences.
func (s *Synthesizer) stampTimestamps(pkts []*packet.Packet, ci int, r *stats.RNG) {
	dist := s.gapDists[ci]
	if dist == nil || len(pkts) == 0 {
		return
	}
	ts := genEpoch
	for _, p := range pkts {
		p.Timestamp = ts
		gap := dist.Sample(r)
		if gap < 0.01 {
			gap = 0.01
		}
		ts = ts.Add(time.Duration(gap * float64(time.Millisecond)))
	}
}
