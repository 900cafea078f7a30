// Package nn (imported as nntest) writes nn checkpoints in the gob-only
// layouts of versions 1 and 2, which nn no longer writes but still
// reads, so tests can pin that files from older builds keep loading.
// The types copy the old ones name for name and field for field, and
// the package keeps nn's name, because gob puts type names in the
// stream and qualifies unnamed ones ("[]nn.paramBlob") with it: the
// bytes match what those builds wrote.
package nn

import (
	"encoding/gob"
	"io"
	"runtime"

	"trafficdiff/internal/tensor"
)

// paramBlob is one parameter: its shape and every value.
type paramBlob struct {
	Shape []int
	Data  []float32
}

// TrainerState is a version-2 checkpoint's training state, with the
// Adam moments inline. It converts to and from nn.TrainerState.
type TrainerState struct {
	Step     int
	AdamStep int
	AdamM    [][]float32
	AdamV    [][]float32
	RNG      [4]uint64
	Losses   []float64
}

// checkpoint is the whole version-1/2 file.
type checkpoint struct {
	Version int
	Params  []paramBlob
	Train   *TrainerState
}

// WriteParams writes params as a version-1 (weights-only) checkpoint.
func WriteParams(w io.Writer, params []*tensor.Tensor) error {
	return write(w, 1, params, nil)
}

// WriteTraining writes params and st as a version-2 checkpoint.
func WriteTraining(w io.Writer, params []*tensor.Tensor, st *TrainerState) error {
	return write(w, 2, params, st)
}

func write(w io.Writer, version int, params []*tensor.Tensor, st *TrainerState) error {
	ck := checkpoint{Version: version, Train: st}
	for _, p := range params {
		ck.Params = append(ck.Params, paramBlob{Shape: p.Shape, Data: p.Data})
	}
	err := gob.NewEncoder(w).Encode(ck)
	// ck holds bare Data slices; the headers own their storage.
	runtime.KeepAlive(params)
	return err
}
