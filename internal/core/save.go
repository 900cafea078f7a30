package core

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"

	"trafficdiff/internal/controlnet"
	"trafficdiff/internal/heuristic"
	"trafficdiff/internal/lora"
	"trafficdiff/internal/nn"
	"trafficdiff/internal/tensor"
)

// snapshot is the serialized synthesizer state.
type snapshot struct {
	Version   int
	Config    Config
	Classes   []string
	Templates map[int]*controlnet.Template
	Controls  map[int]*tensor.Tensor
	GapValues map[int][]float64
	HasLoRA   bool
}

// Save serializes a fine-tuned synthesizer (config, class vocabulary,
// templates, control images and all model parameters) so generation
// can resume in a fresh process without retraining.
func (s *Synthesizer) Save(w io.Writer) error {
	if !s.Trained() {
		return fmt.Errorf("core: cannot save an untrained synthesizer")
	}
	snap := snapshot{
		// configSnapshot, not s.cfg: the saved config must carry the live
		// DDIM budget if SetDDIMSteps changed it since construction.
		Version: 1, Config: s.configSnapshot(), Classes: s.classes,
		Templates: s.templates, Controls: s.controls,
		GapValues: map[int][]float64{},
		HasLoRA:   true,
	}
	for ci, d := range s.gapDists {
		snap.GapValues[ci] = d.Values()
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("core: encoding snapshot: %w", err)
	}
	return nn.SaveParams(w, s.allParams())
}

// Load reconstructs a synthesizer saved with Save.
func Load(r io.Reader) (*Synthesizer, error) {
	// The stream holds two consecutive gob streams (snapshot, then
	// params). gob.NewDecoder wraps readers that lack ReadByte in its
	// own bufio.Reader, whose read-ahead would swallow the start of the
	// second stream — loading from an *os.File then fails or not
	// depending on where the refills land relative to the boundary.
	// One shared ByteReader keeps every byte visible to both decoders.
	br := bufio.NewReader(r)
	var snap snapshot
	if err := gob.NewDecoder(br).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: decoding snapshot: %w", err)
	}
	if snap.Version != 1 {
		return nil, fmt.Errorf("core: unsupported snapshot version %d", snap.Version)
	}
	if !snap.HasLoRA {
		return nil, fmt.Errorf("core: checkpoint has no LoRA adapter; base-only checkpoints are not supported")
	}
	// Skeletons only (nil init streams): LoadParams below covers every
	// parameter they create — TestLoadCoversEveryParameter.
	s, err := build(snap.Config, snap.Classes, nil)
	if err != nil {
		return nil, err
	}
	s.templates = snap.Templates
	s.controls = snap.Controls
	for ci, vals := range snap.GapValues {
		if len(vals) > 0 {
			s.gapDists[ci] = heuristic.NewEmpirical(vals)
		}
	}
	s.adapted = lora.NewAdaptedMLP(nil, s.base, snap.Config.LoRARank, snap.Config.LoRAAlpha, len(snap.Classes))
	if err := nn.LoadParams(br, s.allParams()); err != nil {
		return nil, err
	}
	return s, nil
}

// allParams returns every parameter the snapshot covers, in a stable
// order.
func (s *Synthesizer) allParams() []*nn.V {
	return append(s.base.Params(), s.adapted.Params()...)
}
