package lora

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"trafficdiff/internal/diffusion"
	"trafficdiff/internal/stats"
	"trafficdiff/internal/tensor"
)

// goldenModel builds a small adapted denoiser whose zero-initialized
// layers (output projection, ControlNet hook, adapter B matrices) are
// given real weights, so every term of the forward reaches the output.
func goldenModel(r *stats.RNG, h, w int) *AdaptedMLP {
	base := diffusion.NewMLPDenoiser(r, h, w, 32, 2)
	base.OutLayer().W.X.Randn(r, 0.05)
	base.CtrlProjLayer().W.X.Randn(r, 0.05)
	ad := NewAdaptedMLP(r, base, 2, 4, 2)
	for _, a := range []*Adapter{ad.XProj, ad.Hid, ad.Out} {
		a.B.X.Randn(r, 0.1)
	}
	return ad
}

// goldenSampleDigests are sha256 digests of the raw float32 bits one
// scheduler batch (sampleFlows) returns for goldenModel, recorded on the
// commit before the register-blocked A·Bᵀ kernel and the shared-trunk
// guided forward landed. The in-binary oracles (the batch-1 reference loop, the
// serial kernel reference) share kernels and forward helpers with the path
// they check; these digests are what sees a change both sides share,
// at single-ulp resolution (core's pcap digests sit behind
// quantization). A change that means to alter output bytes re-records
// them, bumps core.OutputVersion and GoldenOutputVersion with them, and
// says so.
var goldenSampleDigests = map[string]string{
	"fp32/ddpm":  "7924acc33dcee9e6b0cbf3cd229c5bff04f3637886ce719a6c3ba68932701983",
	"fp32/ddim4": "7aa984f627039300a88ca36adb7c5763f804e59425330c76310476ba80afce8f",
}

// GoldenOutputVersion is the core.OutputVersion goldenSampleDigests
// were recorded at; golden_version_test.go holds it to the current
// version (core imports this package, so the check lives in the
// external test package).
const GoldenOutputVersion = 1

func TestGoldenSampleDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Go fuses x*y+z into one FMA on some architectures, which
		// rounds differently; the digests were recorded on amd64.
		t.Skipf("golden digests are recorded on amd64, not %s", runtime.GOARCH)
	}
	r := stats.NewRNG(20231128)
	h, w := 4, 8
	model := goldenModel(r, h, w)
	sched := diffusion.NewSchedule(diffusion.ScheduleCosine, 12)
	control := tensor.New(1, h, w).Randn(r, 1)
	for _, ddim := range []int{0, 4} {
		key := "fp32/ddpm"
		if ddim > 0 {
			key = "fp32/ddim4"
		}
		out, err := sampleFlows(model, sched, 1, 2, ddim, control, []uint64{5, 6, 7})
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		hash := sha256.New()
		var b [4]byte
		for _, v := range out {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			hash.Write(b[:])
		}
		got := hex.EncodeToString(hash.Sum(nil))
		if got != goldenSampleDigests[key] {
			t.Errorf("%s: digest %s, want %s", key, got, goldenSampleDigests[key])
		}
	}
}
