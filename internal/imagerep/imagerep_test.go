package imagerep

import (
	"bytes"
	"errors"
	"image/png"
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"trafficdiff/internal/nprint"
	"trafficdiff/internal/packet"
	"trafficdiff/internal/stats"
)

func sampleMatrix(t testing.TB) *nprint.Matrix {
	t.Helper()
	var b packet.Builder
	ip := packet.IPv4{TTL: 64, SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2}}
	m := nprint.NewMatrix(3)
	p := b.BuildTCP(time.Unix(0, 0), ip, packet.TCP{SrcPort: 443, DstPort: 1000, Flags: packet.FlagACK}, nil)
	for i := 0; i < 3; i++ {
		nprint.EncodePacket(m.Row(i), p)
	}
	return m
}

func TestMatrixImageRoundTrip(t *testing.T) {
	m := sampleMatrix(t)
	im := FromMatrix(m)
	if im.H != 3 || im.W != nprint.BitsPerPacket {
		t.Fatalf("image shape %dx%d", im.H, im.W)
	}
	back, err := ToMatrix(im)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Data {
		if m.Data[i] != back.Data[i] {
			t.Fatalf("cell %d: %d != %d", i, m.Data[i], back.Data[i])
		}
	}
}

func TestToMatrixRejectsWrongWidth(t *testing.T) {
	if _, err := ToMatrix(NewImage(2, 100)); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestQuantizeValueThresholds(t *testing.T) {
	cases := []struct {
		in   float32
		want int8
	}{
		{-1, -1}, {-0.51, -1}, {-0.5, -1}, {-0.49, 0}, {0, 0},
		{0.49, 0}, {0.5, 1}, {0.51, 1}, {1, 1}, {2.5, 1}, {-7, -1},
	}
	for _, c := range cases {
		if got := QuantizeValue(c.in); got != c.want {
			t.Errorf("QuantizeValue(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestQuantizeIdempotent(t *testing.T) {
	f := func(vals [16]float32) bool {
		im := &Image{H: 4, W: 4, Pix: vals[:]}
		once := Quantize(im.Clone())
		twice := Quantize(once.Clone())
		for i := range once.Pix {
			if once.Pix[i] != twice.Pix[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDownscaleMeanPooling(t *testing.T) {
	im := NewImage(2, 4)
	copy(im.Pix, []float32{1, 1, 0, 0, 1, 1, -1, -1})
	out, err := Downscale(im, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out.H != 1 || out.W != 2 {
		t.Fatalf("shape %dx%d", out.H, out.W)
	}
	if out.Pix[0] != 1 || out.Pix[1] != -0.5 {
		t.Fatalf("pooled = %v", out.Pix)
	}
}

func TestDownscaleRejectsNonDivisible(t *testing.T) {
	if _, err := Downscale(NewImage(3, 4), 2, 2); err == nil {
		t.Fatal("expected error for non-divisible height")
	}
}

func TestUpscaleNearestNeighbor(t *testing.T) {
	im := NewImage(1, 2)
	im.Pix[0], im.Pix[1] = 1, -1
	out, err := Upscale(im, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if out.H != 2 || out.W != 6 {
		t.Fatalf("shape %dx%d", out.H, out.W)
	}
	want := []float32{1, 1, 1, -1, -1, -1, 1, 1, 1, -1, -1, -1}
	for i := range want {
		if out.Pix[i] != want[i] {
			t.Fatalf("upscaled = %v", out.Pix)
		}
	}
}

func TestDownUpRoundTripOnBlocks(t *testing.T) {
	// Piecewise-constant content (constant within factor blocks)
	// survives downscale+upscale exactly.
	im := NewImage(4, 4)
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			v := float32(1)
			if c >= 2 {
				v = -1
			}
			im.Set(r, c, v)
		}
	}
	down, err := Downscale(im, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	up, err := Upscale(down, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range im.Pix {
		if im.Pix[i] != up.Pix[i] {
			t.Fatalf("block content not preserved at %d", i)
		}
	}
}

func TestPadRows(t *testing.T) {
	im := NewImage(2, 3)
	for i := range im.Pix {
		im.Pix[i] = 1
	}
	out := PadRows(im, 4, -1)
	if out.H != 4 {
		t.Fatalf("H = %d", out.H)
	}
	if out.At(1, 2) != 1 || out.At(3, 0) != -1 {
		t.Fatal("pad content wrong")
	}
	same := PadRows(im, 1, -1)
	if same != im {
		t.Fatal("PadRows should be a no-op when already tall enough")
	}
}

func TestRenderPNG(t *testing.T) {
	m := sampleMatrix(t)
	im := FromMatrix(m)
	var buf bytes.Buffer
	if err := RenderPNG(&buf, im); err != nil {
		t.Fatal(err)
	}
	cfg, err := png.DecodeConfig(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Width != nprint.BitsPerPacket || cfg.Height != 3 {
		t.Fatalf("png %dx%d", cfg.Width, cfg.Height)
	}
}

func TestColumnActivity(t *testing.T) {
	m := sampleMatrix(t) // all rows TCP
	im := FromMatrix(m)
	act := ColumnActivity(im)
	// IPv4 byte 0 is always populated.
	if act[0] != 1 {
		t.Errorf("ipv4 col activity = %v", act[0])
	}
	// UDP section must be fully vacant.
	for c := nprint.UDPOffset; c < nprint.UDPOffset+nprint.UDPBits; c++ {
		if act[c] != 0 {
			t.Fatalf("udp column %d active in TCP flow", c)
		}
	}
	if math.Abs(act[nprint.TCPOffset]-1) > 1e-9 {
		t.Errorf("tcp col activity = %v", act[nprint.TCPOffset])
	}
}

func TestColumnActivityEmptyImage(t *testing.T) {
	act := ColumnActivity(NewImage(0, 8))
	for _, a := range act {
		if a != 0 {
			t.Fatal("empty image should have zero activity")
		}
	}
}

func TestPNGRoundTrip(t *testing.T) {
	m := sampleMatrix(t)
	im := FromMatrix(m)
	var buf bytes.Buffer
	if err := RenderPNG(&buf, im); err != nil {
		t.Fatal(err)
	}
	back, err := ParsePNG(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.H != im.H || back.W != im.W {
		t.Fatalf("shape %dx%d vs %dx%d", back.H, back.W, im.H, im.W)
	}
	for i := range im.Pix {
		if im.Pix[i] != back.Pix[i] {
			t.Fatalf("pixel %d: %v != %v", i, im.Pix[i], back.Pix[i])
		}
	}
	// And all the way back to a matrix.
	m2, err := ToMatrix(back)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Data {
		if m.Data[i] != m2.Data[i] {
			t.Fatalf("matrix cell %d lost in png round trip", i)
		}
	}
}

func TestParsePNGRejectsGarbage(t *testing.T) {
	if _, err := ParsePNG(bytes.NewReader([]byte("not a png"))); err == nil {
		t.Fatal("garbage accepted as png")
	}
}

// TestQuantizeUpscaledMatchesThreeSteps is the one-pass form's contract:
// for any pixels — the quantizer's boundary values, signed zeros, NaN
// and infinities among them — its matrix equals, cell for cell, what
// Upscale, Quantize and ToMatrix produce in sequence.
func TestQuantizeUpscaledMatchesThreeSteps(t *testing.T) {
	special := []float32{
		0.5, -0.5, math.Nextafter32(0.5, 0), math.Nextafter32(-0.5, 0), math.Nextafter32(0.5, 1), math.Nextafter32(-0.5, -1),
		0, float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32,
	}
	r := stats.NewRNG(27)
	for _, f := range []struct{ fh, fw int }{{1, 1}, {2, 8}, {3, 4}} {
		for _, h := range []int{0, 1, 5} {
			w := nprint.BitsPerPacket / f.fw
			pix := make([]float32, h*w)
			for i := range pix {
				if r.Intn(4) == 0 {
					pix[i] = special[r.Intn(len(special))]
				} else {
					pix[i] = float32(r.NormFloat64())
				}
			}
			up, err := Upscale(&Image{H: h, W: w, Pix: pix}, f.fh, f.fw)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ToMatrix(Quantize(up))
			if err != nil {
				t.Fatal(err)
			}
			got, err := QuantizeUpscaled(pix, h, w, f.fh, f.fw)
			if err != nil {
				t.Fatalf("%dx%d by %dx%d: %v", h, w, f.fh, f.fw, err)
			}
			if got.NumRows != want.NumRows || !slices.Equal(got.Data, want.Data) {
				t.Fatalf("%dx%d by %dx%d: one-pass matrix differs from the three-step one", h, w, f.fh, f.fw)
			}
			if err := got.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestQuantizeUpscaledRejectsBadShapes(t *testing.T) {
	for name, c := range map[string]struct{ n, h, w, fh, fw int }{
		"width does not scale to a row": {2 * 100, 2, 100, 2, 8},
		"pixel count is not h*w":        {2*136 - 1, 2, 136, 2, 8},
		"zero row factor":               {2 * 136, 2, 136, 0, 8},
		"negative column factor":        {2 * 136, 2, 136, 2, -8},
	} {
		if _, err := QuantizeUpscaled(make([]float32, c.n), c.h, c.w, c.fh, c.fw); !errors.Is(err, ErrShapeMismatch) {
			t.Errorf("%s: err = %v, want ErrShapeMismatch", name, err)
		}
	}
}

// TestQuantizeUpscaledAllocs pins the pass to its result: the matrix
// header and its cells, nothing per pixel or per row.
func TestQuantizeUpscaledAllocs(t *testing.T) {
	pix := make([]float32, 16*136)
	if n := testing.AllocsPerRun(20, func() {
		if _, err := QuantizeUpscaled(pix, 16, 136, 2, 8); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Fatalf("%v allocations per call, want at most 2", n)
	}
}
