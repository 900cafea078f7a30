package nn

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Checkpoint format versions. Version 1 is the original weights-only
// format written by SaveParams; Version 2 adds the mid-run training
// state (optimizer moments, RNG position, loss curve, step counter)
// written by SaveTraining. SaveParams keeps emitting Version 1 so
// weight files stay readable by older loaders, and
// LoadParams accepts both versions (ignoring any training state).
const (
	versionParams  = 1
	versionTrainer = 2
)

// paramBlob is the on-disk form of one parameter tensor.
type paramBlob struct {
	Shape []int
	Data  []float32
}

// TrainerState is the serializable mid-run training state carried by a
// Version-2 checkpoint alongside the parameter values. It captures
// everything a step-wise training loop touches beyond the weights
// themselves, so a killed run can resume bit-identically: the Adam
// update count and moment estimates (one slice per parameter, in
// checkpoint param order), the minibatch RNG position, the loss curve
// so far, and the number of completed optimizer steps.
type TrainerState struct {
	Step     int
	AdamStep int
	AdamM    [][]float32
	AdamV    [][]float32
	RNG      [4]uint64
	Losses   []float64
}

// checkpoint is the on-disk form of a parameter list, optionally with
// mid-run training state (Version 2).
type checkpoint struct {
	Version int
	Params  []paramBlob
	Train   *TrainerState
}

// SaveParams writes the parameter values (not gradients) to w in a
// stable binary format. The parameter order defines the layout; load
// into a model built with the same constructor arguments.
func SaveParams(w io.Writer, params []*V) error {
	ck := checkpoint{Version: versionParams}
	for _, p := range params {
		ck.Params = append(ck.Params, paramBlob{Shape: p.X.Shape, Data: p.X.Data})
	}
	return gob.NewEncoder(w).Encode(ck)
}

// LoadParams reads a checkpoint written by SaveParams or SaveTraining
// into params, ignoring any training state. Every parameter's shape
// must match.
func LoadParams(r io.Reader, params []*V) error {
	var ck checkpoint
	if err := gob.NewDecoder(r).Decode(&ck); err != nil {
		return fmt.Errorf("nn: decoding checkpoint: %w", err)
	}
	if ck.Version != versionParams && ck.Version != versionTrainer {
		return fmt.Errorf("nn: unsupported checkpoint version %d", ck.Version)
	}
	return installParams(ck.Params, params)
}

// SaveTraining writes params plus mid-run trainer state as a Version-2
// checkpoint. The AdamM/AdamV slices in st must align with params
// element-for-element.
func SaveTraining(w io.Writer, params []*V, st *TrainerState) error {
	if st == nil {
		return fmt.Errorf("nn: SaveTraining needs trainer state")
	}
	ck := checkpoint{Version: versionTrainer, Train: st}
	for _, p := range params {
		ck.Params = append(ck.Params, paramBlob{Shape: p.X.Shape, Data: p.X.Data})
	}
	return gob.NewEncoder(w).Encode(ck)
}

// LoadTraining reads a Version-2 checkpoint written by SaveTraining:
// the weights are installed into params and the training state is
// returned. Weights-only (Version 1) checkpoints are rejected — they
// carry no state to resume from.
func LoadTraining(r io.Reader, params []*V) (*TrainerState, error) {
	var ck checkpoint
	if err := gob.NewDecoder(r).Decode(&ck); err != nil {
		return nil, fmt.Errorf("nn: decoding checkpoint: %w", err)
	}
	if ck.Version != versionTrainer {
		return nil, fmt.Errorf("nn: checkpoint version %d has no training state (want %d)", ck.Version, versionTrainer)
	}
	if ck.Train == nil {
		return nil, fmt.Errorf("nn: version-%d checkpoint is missing its training state", versionTrainer)
	}
	if err := installParams(ck.Params, params); err != nil {
		return nil, err
	}
	return ck.Train, nil
}

// installParams shape-checks blobs against params and copies the
// values in.
func installParams(blobs []paramBlob, params []*V) error {
	if len(blobs) != len(params) {
		return fmt.Errorf("nn: checkpoint has %d params, model has %d", len(blobs), len(params))
	}
	for i, blob := range blobs {
		p := params[i]
		if len(blob.Data) != len(p.X.Data) {
			return fmt.Errorf("nn: param %d has %d values, model wants %d", i, len(blob.Data), len(p.X.Data))
		}
		if len(blob.Shape) != len(p.X.Shape) {
			return fmt.Errorf("nn: param %d shape %v, model wants %v", i, blob.Shape, p.X.Shape)
		}
		for j := range blob.Shape {
			if blob.Shape[j] != p.X.Shape[j] {
				return fmt.Errorf("nn: param %d shape %v, model wants %v", i, blob.Shape, p.X.Shape)
			}
		}
		copy(p.X.Data, blob.Data)
	}
	return nil
}
