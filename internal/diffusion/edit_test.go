package diffusion

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"trafficdiff/internal/stats"
	"trafficdiff/internal/tensor"
)

// editModel trains a tiny two-class model on the left/right-half data.
func editModel(t *testing.T) (*MLPDenoiser, *Schedule) {
	t.Helper()
	r := stats.NewRNG(3)
	model := NewMLPDenoiser(r, 4, 8, 96, 2)
	sched := NewSchedule(ScheduleCosine, 50)
	if _, err := Train(model, sched, tinySet(4, 8), TrainConfig{
		Steps: 400, Batch: 8, LR: 5e-3, ClipNorm: 5, Seed: 2, DropCond: 0.1, Params: model.Params(),
	}); err != nil {
		t.Fatal(err)
	}
	return model, sched
}

func TestInpaintPreservesKnownRegion(t *testing.T) {
	model, sched := editModel(t)
	h, w := 4, 8
	known := tensor.New(1, h, w)
	mask := make([]bool, h*w)
	// Left half observed at +1 (class-0 style), right half missing.
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x < w/2 {
				known.Data[y*w+x] = 1
				mask[y*w+x] = true
			}
		}
	}
	out, err := Inpaint(model, sched, InpaintConfig{
		Known: known, Mask: mask, Class: 0, GuidanceScale: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Known region reproduced exactly at t=0 (no noise at final step).
	for y := 0; y < h; y++ {
		for x := 0; x < w/2; x++ {
			if got := out.Data[y*w+x]; math.Abs(float64(got-1)) > 1e-6 {
				t.Fatalf("known pixel (%d,%d) = %v, want 1", y, x, got)
			}
		}
	}
	for _, v := range out.Data {
		if math.IsNaN(float64(v)) {
			t.Fatal("inpaint produced NaN")
		}
	}
}

func TestInpaintValidation(t *testing.T) {
	model, sched := editModel(t)
	known := tensor.New(1, 4, 8)
	mask := make([]bool, 32)
	if _, err := Inpaint(model, sched, InpaintConfig{Known: nil, Mask: mask, Class: 0}); err == nil {
		t.Error("nil known should fail")
	}
	if _, err := Inpaint(model, sched, InpaintConfig{Known: known, Mask: mask[:5], Class: 0}); err == nil {
		t.Error("short mask should fail")
	}
	if _, err := Inpaint(model, sched, InpaintConfig{Known: known, Mask: mask, Class: 9}); err == nil {
		t.Error("bad class should fail")
	}
}

func TestTranslateMovesTowardTargetClass(t *testing.T) {
	model, sched := editModel(t)
	h, w := 4, 8
	// Source is a class-0 image (left half bright).
	src := tensor.New(1, h, w)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x < w/2 {
				src.Data[y*w+x] = 1
			} else {
				src.Data[y*w+x] = -1
			}
		}
	}
	out, err := Translate(model, sched, TranslateConfig{
		Source: src, TargetClass: 1, Strength: 0.9, GuidanceScale: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var left, right float64
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := float64(out.Data[y*w+x])
			if x < w/2 {
				left += v
			} else {
				right += v
			}
		}
	}
	if right <= left {
		t.Fatalf("translation did not move toward class 1: left %v right %v", left, right)
	}
}

func TestTranslateLowStrengthPreservesSource(t *testing.T) {
	model, sched := editModel(t)
	h, w := 4, 8
	src := tensor.New(1, h, w)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x < w/2 {
				src.Data[y*w+x] = 1
			} else {
				src.Data[y*w+x] = -1
			}
		}
	}
	out, err := Translate(model, sched, TranslateConfig{
		Source: src, TargetClass: 1, Strength: 0.05, GuidanceScale: 1, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	// With tiny strength the output stays close to the source.
	var dist float64
	for i := range src.Data {
		dist += math.Abs(float64(out.Data[i] - src.Data[i]))
	}
	if dist/float64(len(src.Data)) > 0.5 {
		t.Fatalf("low-strength translation diverged: mean |Δ| = %v", dist/32)
	}
}

// goldenEditDigests are sha256 digests of the raw float32 bits Inpaint
// and Translate return on equivModel, recorded while both edits still
// ran their own batch-1 reverse loop, before they moved onto the
// Scheduler. A change that means to alter edit bytes re-records them
// (run the test and copy the printed digests) and says so.
var goldenEditDigests = map[string]string{
	"inpaint/w=1/ctl=false":          "16b50c67d10cac60930e128c102fe86175191c3cc5c8c0899f9f5ee92a366ec6",
	"inpaint/w=1/ctl=true":           "38a61143f473674e1d3f608521eb34d5ea7dac0d8722ca9f6097612986b6bca0",
	"inpaint/w=3/ctl=false":          "e6fc744fbe386209b9de7a47b852b987049effdff36d426a60291fc18c754386",
	"inpaint/w=3/ctl=true":           "1920342d455779afcbed82a3810c0941557addd52038839e80334de20945395e",
	"translate/w=1/ctl=false/s=0.05": "7ad83222eafcc2d577ad8dc3997e536b08884c3238564a126ead979287eb54a7",
	"translate/w=1/ctl=false/s=0.5":  "6e568284374d561d3690bd38eca1e8df284ca8a5196671fc0db0b21040a15b80",
	"translate/w=1/ctl=false/s=1":    "02258b35af305d17b9efc67568919d7a5c010b51ecef9603525e8de09c80bda6",
	"translate/w=1/ctl=true/s=0.05":  "3203f57d7df1648c801bbb72156ac20fc9939ae07a52a142ab2fb61dd873e9a4",
	"translate/w=1/ctl=true/s=0.5":   "572b7f8b00c7d3fa1f16a287739f26a0d036e90ffdf558e1e0b48bf02149020f",
	"translate/w=1/ctl=true/s=1":     "fd10ede96a53c50a0d052738ac8c69b7b0cab106f023901b30b4b5914f5b60e4",
	"translate/w=3/ctl=false/s=0.05": "7a5ead0c2fabb89272272eae951f0436d84128f6f7c4ef07b275a69559b0fdbc",
	"translate/w=3/ctl=false/s=0.5":  "8a216f697db05669f58ca9e9ff018c0b7b8a8096099dbf26e421c5c212e312ad",
	"translate/w=3/ctl=false/s=1":    "ec3958168bfafd3e9afa68bcaf13d1cd58ca8d9205ec0197e7d495cf7224e4d1",
	"translate/w=3/ctl=true/s=0.05":  "d5befab8fd01a621cbc373e092fff491a84cd8002172a2cb2d295c93c2ea2d5b",
	"translate/w=3/ctl=true/s=0.5":   "49d37c21d7e9e275b7987b516d9389865e9f4a953444436da266a440689eea7e",
	"translate/w=3/ctl=true/s=1":     "6a06c8d64163ed8d582c6a57d5827d7f83c6bfe269090f4943dbf3a9bb9289cb",
}

// TestGoldenEditDigests pins the edits' output bytes across versions:
// Inpaint and Translate over guidance {1, 3} × control {nil, image},
// Translate at strengths {0.05, 0.5, 1}.
func TestGoldenEditDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Go fuses x*y+z into one FMA on some architectures, which
		// rounds differently; the digests were recorded on amd64.
		t.Skipf("golden digests are recorded on amd64, not %s", runtime.GOARCH)
	}
	r := stats.NewRNG(20231128)
	h, w := 4, 8
	model := equivModel(r, h, w)
	sched := NewSchedule(ScheduleCosine, 12)
	control := tensor.New(1, h, w).Randn(r, 1)
	src := tensor.New(1, h, w).Randn(r, 1)
	mask := make([]bool, h*w)
	for i := range mask {
		mask[i] = i%w < w/2
	}
	check := func(key string, out *tensor.Tensor, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		hash := sha256.New()
		var b [4]byte
		for _, v := range out.Data {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			hash.Write(b[:])
		}
		if got := hex.EncodeToString(hash.Sum(nil)); got != goldenEditDigests[key] {
			t.Errorf("%s: digest %s, want %s", key, got, goldenEditDigests[key])
		}
	}
	for _, guidance := range []float64{1, 3} {
		for _, ctl := range []*tensor.Tensor{nil, control} {
			key := fmt.Sprintf("w=%v/ctl=%v", guidance, ctl != nil)
			out, err := Inpaint(model, sched, InpaintConfig{
				Known: src, Mask: mask, Class: 1, GuidanceScale: guidance, Control: ctl, Seed: 5,
			})
			check("inpaint/"+key, out, err)
			for _, strength := range []float64{0.05, 0.5, 1} {
				out, err := Translate(model, sched, TranslateConfig{
					Source: src, TargetClass: 1, Strength: strength,
					GuidanceScale: guidance, Control: ctl, Seed: 7,
				})
				check(fmt.Sprintf("translate/%s/s=%v", key, strength), out, err)
			}
		}
	}
}

func TestTranslateValidation(t *testing.T) {
	model, sched := editModel(t)
	src := tensor.New(1, 4, 8)
	if _, err := Translate(model, sched, TranslateConfig{Source: nil, TargetClass: 0, Strength: 0.5}); err == nil {
		t.Error("nil source should fail")
	}
	if _, err := Translate(model, sched, TranslateConfig{Source: src, TargetClass: 5, Strength: 0.5}); err == nil {
		t.Error("bad class should fail")
	}
	if _, err := Translate(model, sched, TranslateConfig{Source: src, TargetClass: 0, Strength: 0}); err == nil {
		t.Error("zero strength should fail")
	}
	if _, err := Translate(model, sched, TranslateConfig{Source: src, TargetClass: 0, Strength: 2}); err == nil {
		t.Error("excess strength should fail")
	}
}
