package nn

import (
	"bytes"
	"math"
	"testing"

	"trafficdiff/internal/stats"
)

// quadStep runs one Adam step on f(x) = Σ (x_i - target)² gradients.
func quadStep(opt *Adam, params []*V, target float32) {
	for _, p := range params {
		for j := range p.X.Data {
			p.G.Data[j] = 2 * (p.X.Data[j] - target)
		}
	}
	opt.Step()
}

func bitsEqual32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func TestAdamStateResumesBitIdentically(t *testing.T) {
	r := stats.NewRNG(5)
	mk := func() []*V {
		l := NewLinear(r, 3, 4)
		return l.Params()
	}
	// Reference run: 20 straight steps.
	ref := mk()
	refOpt := NewAdam(1e-2, ref)
	refOpt.ClipNorm = 1
	// Twin run from identical weights, interrupted at step 7.
	r = stats.NewRNG(5)
	twin := mk()
	twinOpt := NewAdam(1e-2, twin)
	twinOpt.ClipNorm = 1

	for i := 0; i < 7; i++ {
		quadStep(refOpt, ref, 0.5)
		quadStep(twinOpt, twin, 0.5)
	}
	// Capture, perturb the twin's optimizer, restore.
	step, m, v := twinOpt.State()
	mCopy := make([][]float32, len(m))
	vCopy := make([][]float32, len(v))
	for i := range m {
		mCopy[i] = append([]float32(nil), m[i]...)
		vCopy[i] = append([]float32(nil), v[i]...)
	}
	fresh := NewAdam(1e-2, twin)
	fresh.ClipNorm = 1
	if err := fresh.SetState(step, mCopy, vCopy); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 13; i++ {
		quadStep(refOpt, ref, 0.5)
		quadStep(fresh, twin, 0.5)
	}
	for i := range ref {
		if !bitsEqual32(ref[i].X.Data, twin[i].X.Data) {
			t.Fatalf("param %d diverged after optimizer state restore", i)
		}
	}
}

func TestAdamSetStateValidates(t *testing.T) {
	p := []*V{Param(3)}
	opt := NewAdam(1e-3, p)
	if err := opt.SetState(-1, [][]float32{make([]float32, 3)}, [][]float32{make([]float32, 3)}); err == nil {
		t.Error("negative step should fail")
	}
	if err := opt.SetState(1, nil, nil); err == nil {
		t.Error("missing moment slices should fail")
	}
	if err := opt.SetState(1, [][]float32{make([]float32, 2)}, [][]float32{make([]float32, 3)}); err == nil {
		t.Error("wrong moment length should fail")
	}
}

func TestSaveTrainingRoundTrip(t *testing.T) {
	r := stats.NewRNG(9)
	l := NewLinear(r, 4, 4)
	params := l.Params()
	st := &TrainerState{
		Step:     12,
		AdamStep: 12,
		AdamM:    [][]float32{make([]float32, len(params[0].X.Data)), make([]float32, len(params[1].X.Data))},
		AdamV:    [][]float32{make([]float32, len(params[0].X.Data)), make([]float32, len(params[1].X.Data))},
		RNG:      [4]uint64{1, 2, 3, 4},
		Losses:   []float64{0.5, 0.25, 0.125},
	}
	st.AdamM[0][0] = 0.75
	var buf bytes.Buffer
	if err := SaveTraining(&buf, params, st); err != nil {
		t.Fatal(err)
	}

	r2 := stats.NewRNG(1234)
	fresh := NewLinear(r2, 4, 4).Params()
	got, err := LoadTraining(bytes.NewReader(buf.Bytes()), fresh)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 12 || got.AdamStep != 12 {
		t.Fatalf("step = %d/%d, want 12/12", got.Step, got.AdamStep)
	}
	if got.RNG != st.RNG {
		t.Fatalf("rng state = %v", got.RNG)
	}
	if len(got.Losses) != 3 {
		t.Fatalf("losses = %v", got.Losses)
	}
	if math.Float32bits(got.AdamM[0][0]) != math.Float32bits(0.75) {
		t.Fatalf("adam moment not preserved: %v", got.AdamM[0][0])
	}
	for i := range params {
		if !bitsEqual32(params[i].X.Data, fresh[i].X.Data) {
			t.Fatalf("param %d not restored", i)
		}
	}
}

func TestLoadParamsAcceptsTrainingCheckpoint(t *testing.T) {
	// A training checkpoint is still a valid weights source for
	// loaders that only care about parameters (e.g. traced).
	r := stats.NewRNG(2)
	l := NewLinear(r, 2, 3)
	params := l.Params()
	st := &TrainerState{
		AdamM: [][]float32{make([]float32, len(params[0].X.Data)), make([]float32, len(params[1].X.Data))},
		AdamV: [][]float32{make([]float32, len(params[0].X.Data)), make([]float32, len(params[1].X.Data))},
		RNG:   [4]uint64{1, 1, 1, 1},
	}
	var buf bytes.Buffer
	if err := SaveTraining(&buf, params, st); err != nil {
		t.Fatal(err)
	}
	fresh := NewLinear(stats.NewRNG(77), 2, 3).Params()
	if err := LoadParams(&buf, fresh); err != nil {
		t.Fatal(err)
	}
	for i := range params {
		if !bitsEqual32(params[i].X.Data, fresh[i].X.Data) {
			t.Fatalf("param %d not loaded from V2 checkpoint", i)
		}
	}
}

func TestLoadTrainingRejectsWeightsOnlyCheckpoint(t *testing.T) {
	// Weights-only files carry no training state to resume from.
	r := stats.NewRNG(2)
	l := NewLinear(r, 2, 2)
	var buf bytes.Buffer
	if err := SaveParams(&buf, l.Params()); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTraining(&buf, l.Params()); err == nil {
		t.Fatal("LoadTraining should reject a weights-only checkpoint")
	}
}
