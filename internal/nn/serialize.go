package nn

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/bits"
	"runtime"
	"unsafe"
)

// Checkpoint format versions. Version 1 carried weights only and
// Version 2 added the mid-run training state (optimizer moments, RNG
// position, loss curve, step counter); both gob-encode every value.
// Version 3, the only one written, gob-encodes a header of shapes (and
// the scalar training state, if any) and follows it with one raw
// section of little-endian float32 values: every parameter in order,
// then for a training checkpoint every AdamM slice and every AdamV
// slice. Readers accept all three.
const (
	versionParams  = 1
	versionTrainer = 2
	versionRaw     = 3
)

// rawChunk is how many values writeRaw encodes per write.
const rawChunk = 8192

// paramBlob is the on-disk form of one parameter tensor. Version 3
// leaves Data empty: the values follow the header.
type paramBlob struct {
	Shape []int
	Data  []float32
}

// TrainerState is the serializable mid-run training state a training
// checkpoint carries alongside the parameter values. It captures
// everything a step-wise training loop touches beyond the weights
// themselves, so a killed run can resume bit-identically: the Adam
// update count and moment estimates (one slice per parameter, in
// checkpoint param order), the minibatch RNG position, the loss curve
// so far, and the number of completed optimizer steps. Version 3 moves
// AdamM and AdamV out of the gob header into the raw section.
type TrainerState struct {
	Step     int
	AdamStep int
	AdamM    [][]float32
	AdamV    [][]float32
	RNG      [4]uint64
	Losses   []float64
}

// checkpoint is the gob part of every version: the whole file for
// versions 1 and 2, the header for version 3.
type checkpoint struct {
	Version int
	Params  []paramBlob
	Train   *TrainerState
}

// SaveParams writes the parameter values (not gradients) to w in a
// stable binary format. The parameter order defines the layout; load
// into a model built with the same constructor arguments.
func SaveParams(w io.Writer, params []*V) error {
	return save(w, params, nil)
}

// SaveTraining writes params plus mid-run trainer state. The AdamM/AdamV
// slices in st must align with params element-for-element.
func SaveTraining(w io.Writer, params []*V, st *TrainerState) error {
	if st == nil {
		return fmt.Errorf("nn: SaveTraining needs trainer state")
	}
	if len(st.AdamM) != len(params) || len(st.AdamV) != len(params) {
		return fmt.Errorf("nn: trainer state has %d/%d moment slices for %d params", len(st.AdamM), len(st.AdamV), len(params))
	}
	for i, p := range params {
		if len(st.AdamM[i]) != len(p.X.Data) || len(st.AdamV[i]) != len(p.X.Data) {
			return fmt.Errorf("nn: param %d has %d values, its moments %d/%d", i, len(p.X.Data), len(st.AdamM[i]), len(st.AdamV[i]))
		}
	}
	return save(w, params, st)
}

// save writes a version-3 checkpoint: the gob header, then the raw
// section.
func save(w io.Writer, params []*V, st *TrainerState) error {
	ck := checkpoint{Version: versionRaw}
	for _, p := range params {
		ck.Params = append(ck.Params, paramBlob{Shape: p.X.Shape})
	}
	if st != nil {
		scalars := *st
		scalars.AdamM, scalars.AdamV = nil, nil
		ck.Train = &scalars
	}
	if err := gob.NewEncoder(w).Encode(ck); err != nil {
		return err
	}
	buf := make([]byte, 4*rawChunk)
	for _, p := range params {
		if err := writeRaw(w, buf, p.X.Data); err != nil {
			return err
		}
	}
	// The headers own the storage writeRaw reads (tensor.NewLongLived);
	// the caller may hold the model through params alone.
	runtime.KeepAlive(params)
	if st == nil {
		return nil
	}
	for _, moments := range [][][]float32{st.AdamM, st.AdamV} {
		for _, m := range moments {
			if err := writeRaw(w, buf, m); err != nil {
				return err
			}
		}
	}
	return nil
}

// LoadParams reads a checkpoint written by SaveParams or SaveTraining
// into params, ignoring any training state. Every parameter's shape
// must match. A reader that lacks ReadByte is buffered here, so bytes
// past the checkpoint may be consumed; pass an io.ByteReader to read
// streams that follow it.
func LoadParams(r io.Reader, params []*V) error {
	_, err := load(r, params, false)
	return err
}

// LoadTraining reads a checkpoint written by SaveTraining: the weights
// are installed into params and the training state is returned.
// Weights-only checkpoints are rejected — they carry no state to
// resume from.
func LoadTraining(r io.Reader, params []*V) (*TrainerState, error) {
	return load(r, params, true)
}

// load decodes any version into params and, when training is set,
// returns the training state.
func load(r io.Reader, params []*V, training bool) (*TrainerState, error) {
	br, ok := r.(interface {
		io.Reader
		io.ByteReader
	})
	if !ok {
		// gob buffers a reader without ReadByte itself, and its read-ahead
		// would swallow the start of the raw section.
		br = bufio.NewReader(r)
	}
	var ck checkpoint
	if err := gob.NewDecoder(br).Decode(&ck); err != nil {
		return nil, fmt.Errorf("nn: decoding checkpoint: %w", err)
	}
	switch ck.Version {
	case versionParams, versionTrainer, versionRaw:
	default:
		return nil, fmt.Errorf("nn: unsupported checkpoint version %d", ck.Version)
	}
	if training && (ck.Version == versionParams || ck.Train == nil) {
		return nil, fmt.Errorf("nn: version-%d checkpoint has no training state", ck.Version)
	}
	if err := checkShapes(ck.Params, params, ck.Version == versionRaw); err != nil {
		return nil, err
	}
	if ck.Version != versionRaw {
		for i, blob := range ck.Params {
			copy(params[i].X.Data, blob.Data)
		}
		if !training {
			return nil, nil
		}
		// Adam.SetState checks that the moments align with the params.
		return ck.Train, nil
	}

	values := 0
	for i, p := range params {
		if err := readRaw(br, p.X.Data); err != nil {
			return nil, fmt.Errorf("nn: reading param %d: %w", i, err)
		}
		values += len(p.X.Data)
	}
	// As in save: the headers own the storage readRaw fills.
	runtime.KeepAlive(params)
	st := ck.Train
	if !training {
		if st != nil {
			// Skip the moments, so a stream that follows starts where
			// the reader stops.
			if _, err := io.CopyN(io.Discard, br, 8*int64(values)); err != nil {
				return nil, fmt.Errorf("nn: skipping moments: %w", err)
			}
		}
		return nil, nil
	}
	st.AdamM, st.AdamV = make([][]float32, len(params)), make([][]float32, len(params))
	for _, moments := range [][][]float32{st.AdamM, st.AdamV} {
		for i, p := range params {
			moments[i] = make([]float32, len(p.X.Data))
			if err := readRaw(br, moments[i]); err != nil {
				return nil, fmt.Errorf("nn: reading moments of param %d: %w", i, err)
			}
		}
	}
	return st, nil
}

// checkShapes checks blobs against params: the same count, and each
// blob the same shape and — before version 3, which keeps values out of
// the header — the same number of values.
func checkShapes(blobs []paramBlob, params []*V, raw bool) error {
	if len(blobs) != len(params) {
		return fmt.Errorf("nn: checkpoint has %d params, model has %d", len(blobs), len(params))
	}
	for i, blob := range blobs {
		p := params[i]
		want := len(p.X.Data)
		if raw {
			want = 0
		}
		if len(blob.Data) != want {
			return fmt.Errorf("nn: param %d has %d values, model wants %d", i, len(blob.Data), want)
		}
		if len(blob.Shape) != len(p.X.Shape) {
			return fmt.Errorf("nn: param %d shape %v, model wants %v", i, blob.Shape, p.X.Shape)
		}
		for j := range blob.Shape {
			if blob.Shape[j] != p.X.Shape[j] {
				return fmt.Errorf("nn: param %d shape %v, model wants %v", i, blob.Shape, p.X.Shape)
			}
		}
	}
	return nil
}

// writeRaw writes vals to w as little-endian float32s, len(buf)/4 at a
// time.
func writeRaw(w io.Writer, buf []byte, vals []float32) error {
	for len(vals) > 0 {
		n := min(len(vals), len(buf)/4)
		for i, v := range vals[:n] {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		if _, err := w.Write(buf[:4*n]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

// littleEndian reports whether the host stores a float32 in the raw
// section's byte order.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// readRaw fills vals from r's little-endian float32s, read in place
// into vals' own bytes and byte-swapped afterwards on a big-endian
// host: a model's load copies its weights once.
func readRaw(r io.Reader, vals []float32) error {
	if len(vals) == 0 {
		return nil
	}
	if _, err := io.ReadFull(r, unsafe.Slice((*byte)(unsafe.Pointer(&vals[0])), 4*len(vals))); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	if !littleEndian {
		for i, v := range vals {
			vals[i] = math.Float32frombits(bits.ReverseBytes32(math.Float32bits(v)))
		}
	}
	return nil
}
