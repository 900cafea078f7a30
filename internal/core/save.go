package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"trafficdiff/internal/controlnet"
	"trafficdiff/internal/heuristic"
	"trafficdiff/internal/lora"
	"trafficdiff/internal/nn"
	"trafficdiff/internal/nprint"
	"trafficdiff/internal/tensor"
)

// snapshotVersion is the snapshot version Save writes. Version 1 kept
// the per-class state in maps keyed by class index, which gob writes in
// random order, so two saves of one synthesizer differed; version 2
// writes class-indexed slices. Load reads both.
const snapshotVersion = 2

// snapshot is the serialized synthesizer state.
type snapshot struct {
	Version int
	Config  Config
	Classes []string
	// Version 1 per-class state, keyed by class index.
	Templates map[int]*controlnet.Template
	Controls  map[int]*tensor.Tensor
	GapValues map[int][]float64
	// Version 2 per-class state, indexed by class.
	ClassTemplates []controlnet.Template
	ClassControls  []tensor.Tensor
	ClassGaps      [][]float64
	HasLoRA        bool
}

// Save serializes a fine-tuned synthesizer (config, class vocabulary,
// templates, control images and all model parameters) so generation
// can resume in a fresh process without retraining. The same
// synthesizer always saves to the same bytes.
func (s *Synthesizer) Save(w io.Writer) error {
	if !s.Trained() {
		return fmt.Errorf("core: cannot save an untrained synthesizer")
	}
	k := len(s.classes)
	snap := snapshot{
		// configSnapshot, not s.cfg: the saved config must carry the live
		// DDIM budget if SetDDIMSteps changed it since construction.
		Version: snapshotVersion, Config: s.configSnapshot(), Classes: s.classes,
		ClassTemplates: make([]controlnet.Template, k),
		ClassControls:  make([]tensor.Tensor, k),
		ClassGaps:      make([][]float64, k),
		HasLoRA:        true,
	}
	for ci, class := range s.classes {
		tpl, ctrl, gaps := s.templates[ci], s.controls[ci], s.gapDists[ci]
		if tpl == nil || ctrl == nil || gaps == nil {
			return fmt.Errorf("core: class %q has no template, control or gap distribution", class)
		}
		snap.ClassTemplates[ci], snap.ClassControls[ci], snap.ClassGaps[ci] = *tpl, *ctrl, gaps.Values()
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("core: encoding snapshot: %w", err)
	}
	return nn.SaveParams(w, s.allParams())
}

// Load reconstructs a synthesizer saved with Save. It reads r whole
// first (a *bytes.Reader is used as it is), and refuses a config whose
// models would hold more values than the bytes left after the snapshot
// can carry, so what it allocates is bounded by the bytes supplied.
func Load(r io.Reader) (*Synthesizer, error) {
	// The snapshot and the parameter stream are read from one
	// bytes.Reader: it has ReadByte, so neither gob decoder buffers its
	// own read-ahead past the snapshot, and Len tells what is left.
	br, ok := r.(*bytes.Reader)
	if !ok {
		data, err := io.ReadAll(r)
		if err != nil {
			return nil, fmt.Errorf("core: reading checkpoint: %w", err)
		}
		br = bytes.NewReader(data)
	}
	var snap snapshot
	if err := gob.NewDecoder(br).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: decoding snapshot: %w", err)
	}
	if snap.Version != 1 && snap.Version != snapshotVersion {
		return nil, fmt.Errorf("core: unsupported snapshot version %d", snap.Version)
	}
	if !snap.HasLoRA {
		return nil, fmt.Errorf("core: checkpoint has no LoRA adapter; base-only checkpoints are not supported")
	}
	h, w, err := CheckConfig(snap.Config, snap.Classes)
	if err != nil {
		return nil, err
	}
	// A value takes four bytes in a version-3 parameter stream and at
	// least one in the gob streams of versions 1-2.
	if n := paramValues(snap.Config, h, w, len(snap.Classes)); n > uint64(br.Len()) {
		return nil, fmt.Errorf("core: config needs %d parameter values, the checkpoint has %d bytes left", n, br.Len())
	}
	if err := snap.toClassSlices(); err != nil {
		return nil, err
	}
	// Skeletons only (nil init streams): LoadParams below covers every
	// parameter they create — TestLoadCoversEveryParameter.
	s, err := build(snap.Config, snap.Classes, nil)
	if err != nil {
		return nil, err
	}
	for ci := range snap.Classes {
		tpl, ctrl := &snap.ClassTemplates[ci], &snap.ClassControls[ci]
		if len(tpl.State) != nprint.BitsPerPacket || len(tpl.Fill) != nprint.BitsPerPacket || len(tpl.Constant) != nprint.BitsPerPacket {
			return nil, fmt.Errorf("core: class %d template covers %d/%d/%d columns, want %d",
				ci, len(tpl.State), len(tpl.Fill), len(tpl.Constant), nprint.BitsPerPacket)
		}
		if len(ctrl.Shape) != 3 || ctrl.Shape[0] != 1 || ctrl.Shape[1] != h || ctrl.Shape[2] != w || len(ctrl.Data) != h*w {
			return nil, fmt.Errorf("core: class %d control image has shape %v and %d values, want [1 %d %d]", ci, ctrl.Shape, len(ctrl.Data), h, w)
		}
		s.templates[ci], s.controls[ci] = tpl, ctrl
		if gaps := snap.ClassGaps[ci]; len(gaps) > 0 {
			s.gapDists[ci] = heuristic.NewEmpirical(gaps)
		}
	}
	s.adapted = lora.NewAdaptedMLP(nil, s.base, snap.Config.LoRARank, snap.Config.LoRAAlpha, len(snap.Classes))
	if err := nn.LoadParams(br, s.allParams()); err != nil {
		return nil, err
	}
	return s, nil
}

// toClassSlices moves a version-1 snapshot's per-class maps into the
// version-2 slices, and checks that every class has its state.
func (snap *snapshot) toClassSlices() error {
	k := len(snap.Classes)
	if snap.Version == 1 {
		snap.ClassTemplates = make([]controlnet.Template, k)
		snap.ClassControls = make([]tensor.Tensor, k)
		snap.ClassGaps = make([][]float64, k)
		for ci := range k {
			tpl, ctrl := snap.Templates[ci], snap.Controls[ci]
			if tpl == nil || ctrl == nil {
				return fmt.Errorf("core: class %d has no template or control image", ci)
			}
			snap.ClassTemplates[ci], snap.ClassControls[ci], snap.ClassGaps[ci] = *tpl, *ctrl, snap.GapValues[ci]
		}
		return nil
	}
	if len(snap.ClassTemplates) != k || len(snap.ClassControls) != k || len(snap.ClassGaps) != k {
		return fmt.Errorf("core: snapshot has %d/%d/%d templates, controls and gap lists for %d classes",
			len(snap.ClassTemplates), len(snap.ClassControls), len(snap.ClassGaps), k)
	}
	return nil
}

// allParams returns every parameter the snapshot covers, in a stable
// order.
func (s *Synthesizer) allParams() []*nn.V {
	return append(s.base.Params(), s.adapted.Params()...)
}
