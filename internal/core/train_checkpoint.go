package core

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"os"

	"trafficdiff/internal/diffusion"
	"trafficdiff/internal/nn"
)

// Training phases: the base model, then LoRA adapters on the frozen
// base.
const (
	phaseBase     = 0
	phaseFineTune = 1
)

// trainCheckpointVersion is the mid-run training checkpoint envelope
// version. Version 1 envelopes came from a pipeline that could also
// average weights (EMA) or train the base alone; their trainer state
// may carry an average this pipeline would drop, so resuming one would
// not continue its trajectory and it is refused.
const trainCheckpointVersion = 2

// defaultCheckpointEvery is the step interval used when a checkpoint
// path is set but no interval was chosen.
const defaultCheckpointEvery = 50

// trainEnvelope heads a crash-safe mid-run training checkpoint file.
// It pins the configuration and class vocabulary the run was started
// with (resuming under a different config would silently diverge) and
// records which phase the trainer state belongs to. The envelope is
// followed by, in order: the frozen base weights (phaseFineTune only,
// as a weights-only nn checkpoint — the fine-tune trainer state covers
// only the adapter parameters it trains) and the diffusion.Trainer
// state (an nn training checkpoint). The nested streams carry their own
// versions, so a change to their layout leaves this one alone.
type trainEnvelope struct {
	Version int
	Config  Config
	Classes []string
	Phase   int
	// BaseLosses is the completed base-phase loss curve, carried so a
	// resumed run can still report the full training history
	// (phaseFineTune only).
	BaseLosses []float64
}

// writeTrainCheckpoint atomically writes the mid-run training
// checkpoint to path: the full state is written to a temp file in the
// same directory, synced, and renamed over path, so a crash at any
// point leaves either the previous checkpoint or the new one — never
// a torn file.
func (s *Synthesizer) writeTrainCheckpoint(path string, phase int, baseLosses []float64, tr *diffusion.Trainer) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("core: creating checkpoint: %w", err)
	}
	w := bufio.NewWriter(f)
	env := trainEnvelope{
		Version: trainCheckpointVersion, Config: s.cfg, Classes: s.classes,
		Phase: phase, BaseLosses: baseLosses,
	}
	err = gob.NewEncoder(w).Encode(env)
	if err == nil && phase == phaseFineTune {
		err = nn.SaveParams(w, s.base.Params())
	}
	if err == nil {
		err = tr.Checkpoint(w)
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		// Best-effort cleanup of the torn temp file; the write error is
		// what the caller needs to see.
		_ = os.Remove(tmp)
		return fmt.Errorf("core: writing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("core: committing checkpoint: %w", err)
	}
	return nil
}

// readResume reads a mid-run checkpoint's leading streams from r: it
// decodes the envelope, checks it against this synthesizer
// (validateResume) and, for a fine-tune-phase checkpoint, loads the
// frozen base weights that follow. It leaves r at the trainer state,
// which the envelope's phase restores. One buffered reader serves every
// stream: a per-decoder buffer would read ahead past a stream boundary,
// and the nn streams read their raw value sections from the same reader
// as their headers.
func (s *Synthesizer) readResume(r *bufio.Reader) (*trainEnvelope, error) {
	var env trainEnvelope
	if err := gob.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint envelope: %w", err)
	}
	if env.Version != trainCheckpointVersion {
		return nil, fmt.Errorf("core: unsupported training checkpoint version %d", env.Version)
	}
	if env.Phase != phaseBase && env.Phase != phaseFineTune {
		return nil, fmt.Errorf("core: training checkpoint has unknown phase %d", env.Phase)
	}
	if err := s.validateResume(&env); err != nil {
		return nil, err
	}
	if env.Phase == phaseFineTune {
		// The base phase completed before the checkpoint was taken; its
		// final weights ride along in the checkpoint instead of being
		// retrained.
		if err := nn.LoadParams(r, s.base.Params()); err != nil {
			return nil, fmt.Errorf("core: restoring base weights: %w", err)
		}
	}
	return &env, nil
}

// validateResume checks that a checkpoint was produced by a run with
// this synthesizer's exact configuration and class vocabulary —
// resuming under different settings would not continue the same
// trajectory, it would silently train a different model.
func (s *Synthesizer) validateResume(env *trainEnvelope) error {
	if env.Config != s.cfg {
		return fmt.Errorf("core: resume checkpoint was written under a different config")
	}
	if len(env.Classes) != len(s.classes) {
		return fmt.Errorf("core: resume checkpoint has %d classes, synthesizer has %d", len(env.Classes), len(s.classes))
	}
	for i := range env.Classes {
		if env.Classes[i] != s.classes[i] {
			return fmt.Errorf("core: resume checkpoint class %d is %q, synthesizer has %q", i, env.Classes[i], s.classes[i])
		}
	}
	return nil
}
