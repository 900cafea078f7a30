package nn

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	nntest "trafficdiff/internal/nn/nntest"
	"trafficdiff/internal/stats"
	"trafficdiff/internal/tensor"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	r := stats.NewRNG(1)
	l1 := NewLinear(r, 4, 8)
	l2 := NewLinear(r, 8, 2)
	params := append(l1.Params(), l2.Params()...)

	var buf bytes.Buffer
	if err := SaveParams(&buf, params); err != nil {
		t.Fatal(err)
	}

	// Fresh model with different init.
	r2 := stats.NewRNG(99)
	m1 := NewLinear(r2, 4, 8)
	m2 := NewLinear(r2, 8, 2)
	fresh := append(m1.Params(), m2.Params()...)
	if err := LoadParams(&buf, fresh); err != nil {
		t.Fatal(err)
	}
	for i := range params {
		for j := range params[i].X.Data {
			if params[i].X.Data[j] != fresh[i].X.Data[j] {
				t.Fatalf("param %d elem %d differs after load", i, j)
			}
		}
	}
}

func TestLoadRejectsMismatchedCount(t *testing.T) {
	r := stats.NewRNG(1)
	l := NewLinear(r, 2, 2)
	var buf bytes.Buffer
	if err := SaveParams(&buf, l.Params()); err != nil {
		t.Fatal(err)
	}
	other := NewLinear(r, 2, 2)
	tooMany := append(other.Params(), Param(1))
	if err := LoadParams(&buf, tooMany); err == nil {
		t.Fatal("expected count mismatch error")
	}
}

func TestLoadRejectsMismatchedShape(t *testing.T) {
	r := stats.NewRNG(1)
	l := NewLinear(r, 2, 3)
	var buf bytes.Buffer
	if err := SaveParams(&buf, l.Params()); err != nil {
		t.Fatal(err)
	}
	wrong := NewLinear(r, 3, 2)
	if err := LoadParams(&buf, wrong.Params()); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if err := LoadParams(bytes.NewReader([]byte("not a checkpoint")), []*V{Param(1)}); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestLoadPreservesZeroGradState(t *testing.T) {
	var buf bytes.Buffer
	p := NewV(tensor.FromSlice([]float32{1, 2, 3}, 3))
	if err := SaveParams(&buf, []*V{p}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	q := withGrads(Param(3))[0]
	q.G.Data[0] = 42 // stale gradient must survive untouched (values only)
	if err := LoadParams(bytes.NewReader(data), []*V{q}); err != nil {
		t.Fatal(err)
	}
	if q.X.Data[2] != 3 {
		t.Fatal("values not loaded")
	}
	if q.G.Data[0] != 42 {
		t.Fatal("LoadParams should not touch gradients")
	}
	// A parameter without a buffer gets none from loading.
	bare := Param(3)
	if err := LoadParams(bytes.NewReader(data), []*V{bare}); err != nil {
		t.Fatal(err)
	}
	if bare.G != nil {
		t.Fatal("LoadParams allocated a gradient buffer")
	}
}

// edgeParams is two parameters whose values include every float32 class
// the raw section must carry bit for bit: signed zeros, subnormals,
// infinities and quiet NaNs with payloads. (Signaling NaNs are left
// out: gob widens float32 to float64, which quiets them, so versions 1
// and 2 never carried them bit for bit.)
func edgeParams() []*V {
	a := NewV(tensor.FromSlice([]float32{
		0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -math.MaxFloat32,
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc00abc),
	}, 2, 4))
	b := NewLinear(stats.NewRNG(3), 5, 3).W
	return []*V{a, b}
}

// freshLike returns zeroed parameters with params' shapes.
func freshLike(params []*V) []*V {
	out := make([]*V, len(params))
	for i, p := range params {
		out[i] = Param(p.X.Shape...)
	}
	return out
}

func tensors(params []*V) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		out[i] = p.X
	}
	return out
}

// momentsLike returns one slice per param of seeded values.
func momentsLike(params []*V, seed uint64) [][]float32 {
	r := stats.NewRNG(seed)
	out := make([][]float32, len(params))
	for i, p := range params {
		out[i] = make([]float32, len(p.X.Data))
		for j := range out[i] {
			out[i][j] = float32(r.NormFloat64())
		}
	}
	return out
}

func sameValues(t *testing.T, what string, want, got [][]float32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d slices, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !bitsEqual32(want[i], got[i]) {
			t.Fatalf("%s: slice %d differs", what, i)
		}
	}
}

func paramValues(params []*V) [][]float32 {
	out := make([][]float32, len(params))
	for i, p := range params {
		out[i] = p.X.Data
	}
	return out
}

// TestLoadReadsEveryVersion writes one model and one trainer state in
// the gob-only layouts of versions 1 and 2 (as older builds wrote them)
// and in today's version 3, and checks that LoadParams and
// LoadTraining read all of them bit-identically.
func TestLoadReadsEveryVersion(t *testing.T) {
	params := edgeParams()
	st := &TrainerState{
		Step: 4, AdamStep: 4, AdamM: momentsLike(params, 1), AdamV: momentsLike(params, 2),
		RNG: [4]uint64{5, 6, 7, 8}, Losses: []float64{0.5, 0.25, 0.125, 0.0625},
	}
	legacy := nntest.TrainerState(*st)
	files := map[string]func(*bytes.Buffer) error{
		"v1":          func(b *bytes.Buffer) error { return nntest.WriteParams(b, tensors(params)) },
		"v2":          func(b *bytes.Buffer) error { return nntest.WriteTraining(b, tensors(params), &legacy) },
		"v3":          func(b *bytes.Buffer) error { return SaveParams(b, params) },
		"v3-training": func(b *bytes.Buffer) error { return SaveTraining(b, params, st) },
	}
	for name, write := range files {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := write(&buf); err != nil {
				t.Fatal(err)
			}
			fresh := freshLike(params)
			if err := LoadParams(bytes.NewReader(buf.Bytes()), fresh); err != nil {
				t.Fatal(err)
			}
			sameValues(t, "LoadParams", paramValues(params), paramValues(fresh))

			fresh = freshLike(params)
			got, err := LoadTraining(bytes.NewReader(buf.Bytes()), fresh)
			if name == "v1" || name == "v3" {
				if err == nil {
					t.Fatal("LoadTraining accepted a weights-only checkpoint")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			sameValues(t, "LoadTraining params", paramValues(params), paramValues(fresh))
			sameValues(t, "AdamM", st.AdamM, got.AdamM)
			sameValues(t, "AdamV", st.AdamV, got.AdamV)
			if got.Step != st.Step || got.AdamStep != st.AdamStep || got.RNG != st.RNG || !reflect.DeepEqual(got.Losses, st.Losses) {
				t.Fatalf("scalar state %+v, want %+v", got, st)
			}
		})
	}
}

// TestSaveRawLayout pins version 3 byte for byte: a gob header with the
// shapes and no values, then every value as a little-endian float32, in
// parameter order — the same bytes on every host.
func TestSaveRawLayout(t *testing.T) {
	params := edgeParams()
	var buf bytes.Buffer
	if err := SaveParams(&buf, params); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(buf.Bytes())
	var ck checkpoint
	if err := gob.NewDecoder(r).Decode(&ck); err != nil {
		t.Fatal(err)
	}
	if ck.Version != versionRaw || ck.Train != nil || len(ck.Params) != len(params) {
		t.Fatalf("header %+v", ck)
	}
	var want []byte
	for i, p := range params {
		if !reflect.DeepEqual(ck.Params[i].Shape, p.X.Shape) || len(ck.Params[i].Data) != 0 {
			t.Fatalf("header param %d: %+v", i, ck.Params[i])
		}
		for _, v := range p.X.Data {
			want = binary.LittleEndian.AppendUint32(want, math.Float32bits(v))
		}
	}
	rest := buf.Bytes()[len(buf.Bytes())-r.Len():]
	if !bytes.Equal(rest, want) {
		t.Fatalf("raw section is %d bytes, want the %d little-endian values", len(rest), len(want))
	}
}

// TestLoadStopsAtCheckpointEnd reads three checkpoints back to back
// from one reader — a training one read as weights only, a weights-only
// one with parameters larger than one raw chunk, and a training one —
// both through a ByteReader and through a bare io.Reader (which
// LoadParams buffers itself, so only the first is read there).
func TestLoadStopsAtCheckpointEnd(t *testing.T) {
	big := NewLinear(stats.NewRNG(4), 300, 100).Params()
	small := edgeParams()
	st := &TrainerState{AdamM: momentsLike(small, 3), AdamV: momentsLike(small, 4)}
	var buf bytes.Buffer
	for _, err := range []error{SaveTraining(&buf, small, st), SaveParams(&buf, big), SaveTraining(&buf, small, st)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(bytes.NewReader(buf.Bytes()))
	gotSmall, gotBig, gotTrained := freshLike(small), freshLike(big), freshLike(small)
	if err := LoadParams(br, gotSmall); err != nil {
		t.Fatal(err)
	}
	if err := LoadParams(br, gotBig); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTraining(br, gotTrained)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := br.Read(make([]byte, 1)); n != 0 {
		t.Fatal("bytes left after the last checkpoint")
	}
	sameValues(t, "first", paramValues(small), paramValues(gotSmall))
	sameValues(t, "second", paramValues(big), paramValues(gotBig))
	sameValues(t, "third", paramValues(small), paramValues(gotTrained))
	sameValues(t, "third's AdamV", st.AdamV, got.AdamV)

	gotSmall = freshLike(small)
	if err := LoadParams(struct{ io.Reader }{bytes.NewReader(buf.Bytes())}, gotSmall); err != nil {
		t.Fatal(err)
	}
	sameValues(t, "bare reader", paramValues(small), paramValues(gotSmall))
}

// TestLoadRejectsTruncated cuts a version-3 training checkpoint at
// every length short of whole: each load fails with an error.
func TestLoadRejectsTruncated(t *testing.T) {
	params := edgeParams()
	var buf bytes.Buffer
	if err := SaveTraining(&buf, params, &TrainerState{AdamM: momentsLike(params, 1), AdamV: momentsLike(params, 2)}); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < buf.Len(); n++ {
		if _, err := LoadTraining(bytes.NewReader(buf.Bytes()[:n]), freshLike(params)); err == nil {
			t.Fatalf("LoadTraining accepted the first %d of %d bytes", n, buf.Len())
		}
	}
}

func TestSaveTrainingRejectsMisalignedMoments(t *testing.T) {
	params := edgeParams()
	short := momentsLike(params, 1)
	short[1] = short[1][:1]
	for _, st := range []*TrainerState{
		{AdamM: momentsLike(params, 1)},
		{AdamM: short, AdamV: momentsLike(params, 2)},
	} {
		if err := SaveTraining(io.Discard, params, st); err == nil {
			t.Fatalf("SaveTraining accepted moments %d/%d for %d params", len(st.AdamM), len(st.AdamV), len(params))
		}
	}
}

// BenchmarkLoadParams loads the two 2176 x 192 projections of the
// paper-scale denoiser (0.84 M values) from a version-3 stream.
func BenchmarkLoadParams(b *testing.B) {
	r := stats.NewRNG(1)
	params := append(NewLinear(r, 2176, 192).Params(), NewLinear(r, 192, 2176).Params()...)
	var buf bytes.Buffer
	if err := SaveParams(&buf, params); err != nil {
		b.Fatal(err)
	}
	fresh := freshLike(params)
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := LoadParams(bytes.NewReader(buf.Bytes()), fresh); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReadRawMatchesWriteRaw reads the raw section in place: the bits
// writeRaw wrote (NaN payloads, signed zeros and subnormals included),
// and io.ErrUnexpectedEOF for a section cut short.
func TestReadRawMatchesWriteRaw(t *testing.T) {
	vals := []float32{0, float32(math.Copysign(0, -1)), 1.5, -3, math.MaxFloat32, math.SmallestNonzeroFloat32,
		math.Float32frombits(0x7fc00001), math.Float32frombits(0xffbfffff), float32(math.Inf(-1))}
	r := stats.NewRNG(3)
	for range 3*rawChunk + 5 {
		vals = append(vals, math.Float32frombits(uint32(r.Uint64())))
	}
	var buf bytes.Buffer
	if err := writeRaw(&buf, make([]byte, 4*rawChunk), vals); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 3, buf.Len()} {
		got := make([]float32, len(vals))
		err := readRaw(bytes.NewReader(buf.Bytes()[:buf.Len()-cut]), got)
		if cut > 0 {
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("cut %d: error %v, want io.ErrUnexpectedEOF", cut, err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := range vals {
			if math.Float32bits(got[i]) != math.Float32bits(vals[i]) {
				t.Fatalf("value %d: read %#x, written %#x", i, math.Float32bits(got[i]), math.Float32bits(vals[i]))
			}
		}
	}
}
