package core

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"trafficdiff/internal/diffusion"
	"trafficdiff/internal/lora"
	"trafficdiff/internal/stats"
	"trafficdiff/internal/tensor"
)

// resumeConfig is fastConfig shrunk further: resume tests retrain the
// pipeline once per stashed checkpoint.
func resumeConfig() Config {
	cfg := fastConfig()
	cfg.Hidden = 32
	cfg.BaseSteps = 6
	cfg.FineTuneSteps = 9
	cfg.Batch = 4
	return cfg
}

// flatParams flattens every model parameter for bitwise comparison.
func flatParams(s *Synthesizer) []float32 {
	var flat []float32
	for _, p := range s.allParams() {
		flat = append(flat, p.X.Data...)
	}
	return flat
}

// TestFineTuneResumeEquivalence simulates a crash at every checkpoint
// boundary of a two-phase (base + LoRA) fine-tune: the full
// run writes periodic checkpoints, each distinct on-disk state the run
// passed through is stashed, and a fresh synthesizer resumed from each
// stash must converge to the same final checkpoint file byte-for-byte
// and the same model weights bit-for-bit.
func TestFineTuneResumeEquivalence(t *testing.T) {
	classes := []string{"amazon", "teams"}
	flows := trainingFlows(t, classes, 3)
	cfg := resumeConfig()
	dir := t.TempDir()
	fullPath := filepath.Join(dir, "full.ckpt")

	// Full uninterrupted run. The progress hook snapshots the
	// checkpoint file at every step boundary: each distinct content is
	// exactly the state a killed run would have found on disk.
	full, err := New(cfg, classes)
	if err != nil {
		t.Fatal(err)
	}
	var stashes [][]byte
	seen := map[string]bool{}
	capture := func(TrainProgress) {
		data, err := os.ReadFile(fullPath)
		if err != nil || seen[string(data)] {
			return
		}
		seen[string(data)] = true
		stashes = append(stashes, data)
	}
	fullReport, err := full.FineTuneWithOptions(flows, FineTuneOptions{
		CheckpointPath: fullPath, CheckpointEvery: 2, Progress: capture,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantFinal, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	capture(TrainProgress{}) // stash the final checkpoint too
	wantParams := flatParams(full)
	if len(stashes) < 4 {
		t.Fatalf("expected several checkpoint states, got %d", len(stashes))
	}

	for i, stash := range stashes {
		resumeFile := filepath.Join(dir, "stash.ckpt")
		if err := os.WriteFile(resumeFile, stash, 0o644); err != nil {
			t.Fatal(err)
		}
		resumedPath := filepath.Join(dir, "resumed.ckpt")
		s, err := New(cfg, classes)
		if err != nil {
			t.Fatal(err)
		}
		report, err := s.FineTuneWithOptions(flows, FineTuneOptions{
			CheckpointPath: resumedPath, CheckpointEvery: 2, ResumeFrom: resumeFile,
		})
		if err != nil {
			t.Fatalf("resume from stash %d: %v", i, err)
		}
		gotFinal, err := os.ReadFile(resumedPath)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotFinal) != string(wantFinal) {
			t.Fatalf("stash %d: final checkpoint differs from uninterrupted run", i)
		}
		gotParams := flatParams(s)
		if len(gotParams) != len(wantParams) {
			t.Fatalf("stash %d: param count %d, want %d", i, len(gotParams), len(wantParams))
		}
		for j := range wantParams {
			if math.Float32bits(gotParams[j]) != math.Float32bits(wantParams[j]) {
				t.Fatalf("stash %d: param elem %d differs after resume", i, j)
			}
		}
		// The training history is reconstructed in full: the base curve
		// rides along in fine-tune-phase checkpoints.
		if len(report.BaseLosses)+len(report.FineTuneLosses) != len(fullReport.BaseLosses)+len(fullReport.FineTuneLosses) {
			t.Fatalf("stash %d: loss history %d+%d, want %d+%d", i,
				len(report.BaseLosses), len(report.FineTuneLosses),
				len(fullReport.BaseLosses), len(fullReport.FineTuneLosses))
		}
	}
}

// TestResumeRejectsMismatch checks the refuse-to-resume guards:
// resuming under a different config or class vocabulary must error
// rather than silently train a different model.
func TestResumeRejectsMismatch(t *testing.T) {
	classes := []string{"amazon", "teams"}
	flows := trainingFlows(t, classes, 2)
	cfg := resumeConfig()
	cfg.BaseSteps = 2
	cfg.FineTuneSteps = 2
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "train.ckpt")

	s, err := New(cfg, classes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.FineTuneWithOptions(flows, FineTuneOptions{
		CheckpointPath: ckpt, CheckpointEvery: 1,
	}); err != nil {
		t.Fatal(err)
	}

	// Different config.
	other := cfg
	other.LR = cfg.LR * 2
	s2, err := New(other, classes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.FineTuneWithOptions(flows, FineTuneOptions{ResumeFrom: ckpt}); err == nil {
		t.Error("resume under a different config should fail")
	}

	// Different class vocabulary. The checkpoint's config is identical,
	// so only the class list trips the guard.
	s3, err := New(cfg, []string{"amazon", "meet"})
	if err != nil {
		t.Fatal(err)
	}
	flows3 := trainingFlows(t, []string{"amazon", "meet"}, 2)
	if _, err := s3.FineTuneWithOptions(flows3, FineTuneOptions{ResumeFrom: ckpt}); err == nil {
		t.Error("resume under different classes should fail")
	}

	// A version-1 envelope, written while trainer state could carry an
	// EMA average this pipeline would drop: identical to the valid
	// checkpoint but for the version, which alone must trip the guard.
	valid, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(valid)
	var env trainEnvelope
	if err := gob.NewDecoder(rd).Decode(&env); err != nil {
		t.Fatal(err)
	}
	env.Version = 1
	var v1 bytes.Buffer
	if err := gob.NewEncoder(&v1).Encode(env); err != nil {
		t.Fatal(err)
	}
	v1.Write(valid[len(valid)-rd.Len():])
	v1Path := filepath.Join(dir, "v1.ckpt")
	if err := os.WriteFile(v1Path, v1.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	s1, err := New(cfg, classes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.FineTuneWithOptions(flows, FineTuneOptions{ResumeFrom: v1Path}); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("resume from a version-1 checkpoint: error %v, want an unsupported-version error", err)
	}

	// Garbage file.
	bad := filepath.Join(dir, "bad.ckpt")
	if err := os.WriteFile(bad, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	s4, err := New(cfg, classes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s4.FineTuneWithOptions(flows, FineTuneOptions{ResumeFrom: bad}); err == nil {
		t.Error("resume from garbage should fail")
	}

	// Missing file.
	s5, err := New(cfg, classes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s5.FineTuneWithOptions(flows, FineTuneOptions{ResumeFrom: filepath.Join(dir, "absent.ckpt")}); err == nil {
		t.Error("resume from a missing file should fail")
	}
}

// TestCheckpointedTrainingMatchesPlain confirms that turning
// checkpointing on does not change the training trajectory: a run
// with CheckpointPath set produces bit-identical weights to a plain
// FineTune.
func TestCheckpointedTrainingMatchesPlain(t *testing.T) {
	classes := []string{"amazon"}
	flows := trainingFlows(t, classes, 2)
	cfg := resumeConfig()
	cfg.BaseSteps = 3
	cfg.FineTuneSteps = 3

	plain, err := New(cfg, classes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.FineTune(flows); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ckpt, err := New(cfg, classes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ckpt.FineTuneWithOptions(flows, FineTuneOptions{
		CheckpointPath: filepath.Join(dir, "train.ckpt"), CheckpointEvery: 1,
	}); err != nil {
		t.Fatal(err)
	}

	a, b := flatParams(plain), flatParams(ckpt)
	if len(a) != len(b) {
		t.Fatal("param layouts differ")
	}
	for j := range a {
		if math.Float32bits(a[j]) != math.Float32bits(b[j]) {
			t.Fatalf("param elem %d differs when checkpointing is on", j)
		}
	}
}

// resumeTraining runs what FineTuneWithOptions runs on a resume
// checkpoint's bytes before it trains: readResume (envelope, config
// and class checks, the fine-tune phase's frozen base weights), then
// the trainer state restored into the envelope's phase's trainer.
func resumeTraining(s *Synthesizer, data []byte) error {
	br := bufio.NewReader(bytes.NewReader(data))
	env, err := s.readResume(br)
	if err != nil {
		return err
	}
	h, w := s.ModelShape()
	set := &diffusion.TrainSet{Images: []*tensor.Tensor{tensor.New(1, h, w)}, Labels: []int{0}}
	var model diffusion.Denoiser = s.base
	params, steps := s.base.Params(), s.cfg.BaseSteps
	if env.Phase == phaseFineTune {
		ad := lora.NewAdaptedMLP(stats.NewRNG(s.cfg.Seed+2), s.base, s.cfg.LoRARank, s.cfg.LoRAAlpha, len(s.classes))
		model, params, steps = ad, ad.Params(), s.cfg.FineTuneSteps
	}
	tr, err := diffusion.NewTrainer(model, s.sched, set, diffusion.TrainConfig{
		Steps: steps, Batch: s.cfg.Batch, LR: s.cfg.LR, Params: params,
	})
	if err != nil {
		return err
	}
	defer tr.Release()
	return tr.Restore(br)
}

// FuzzTrainCheckpoint feeds the resume path arbitrary checkpoint bytes,
// seeded with a real base-phase and a real fine-tune-phase checkpoint
// of a tiny model. It must return an error or restore, never panic, and
// allocate (heap and mapped weights) no more than a fixed amount plus a
// multiple of the input.
func FuzzTrainCheckpoint(f *testing.F) {
	classes := []string{"amazon"}
	cfg := tinyConfig()
	path := filepath.Join(f.TempDir(), "train.ckpt")
	var basePhase []byte
	s, err := New(cfg, classes)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := s.FineTuneWithOptions(trainingFlows(f, classes, 2), FineTuneOptions{
		CheckpointPath: path, CheckpointEvery: 1,
		Progress: func(p TrainProgress) {
			if p.Phase == "finetune" && p.Step == 0 {
				// The file still holds the base phase's boundary
				// checkpoint; a failed read leaves basePhase nil.
				basePhase, _ = os.ReadFile(path)
			}
		},
	}); err != nil || basePhase == nil {
		f.Fatalf("training: %v, base-phase checkpoint %d bytes", err, len(basePhase))
	}
	fineTunePhase, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	for phase, seed := range [][]byte{phaseBase: basePhase, phaseFineTune: fineTunePhase} {
		var env trainEnvelope
		if err := gob.NewDecoder(bytes.NewReader(seed)).Decode(&env); err != nil || env.Phase != phase {
			f.Fatalf("seed for phase %d: envelope %+v, error %v", phase, env, err)
		}
		fresh, err := New(cfg, classes)
		if err != nil {
			f.Fatal(err)
		}
		if err := resumeTraining(fresh, seed); err != nil {
			f.Fatalf("a real checkpoint does not resume: %v", err)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := New(cfg, classes)
		if err != nil {
			t.Fatal(err)
		}
		before := allocated()
		_ = resumeTraining(s, data) // an error is a valid outcome; a panic is not
		if alloc, limit := allocated()-before, uint64(32<<20+64*len(data)); alloc > limit {
			t.Fatalf("resume allocated %d bytes on a %d-byte input (limit %d)", alloc, len(data), limit)
		}
	})
}
