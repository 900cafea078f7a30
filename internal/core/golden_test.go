package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"
)

// goldenDigests are sha256 digests of GenerateSeeded pcap bytes from
// the shared test synthesizer (fastConfig, classes amazon/teams,
// training seed fixed), recorded on the commit BEFORE the
// register-blocked A·Bᵀ kernel and the shared-trunk guided forward
// landed. Every in-binary oracle (the batch-1 reference loop, the serial
// kernel reference) runs the same kernels and forward helpers as the path it
// checks, so a change both share is invisible to them; these digests
// are the only check that crosses versions. They cover training too:
// the model is fine-tuned in this binary through the same kernels.
//
// A kernel or forward change that claims bit-identity must leave them
// untouched. A change that intends to alter output bytes re-records
// them (run the test and copy the printed digests) and says so.
var goldenDigests = map[string]string{
	"amazon/ddpm":  "34395247b67f6f5b7ace049d9658baa8e3a3aa955ae5a71e26599ab10d60b8d3",
	"amazon/ddim4": "e418bfe34e25c80c770ae760cac66558c7189a244aa1b83f7941d646bc6d63dd",
	"teams/ddpm":   "49b606c139b8102d3f0597407490b4f3b54d504d090de02b1407bb467f591692",
	"teams/ddim4":  "0b5e9d75b5a07df608cf843c852f1d7b080f9c1804069aa5c9a37e249466d7ee",
}

// goldenEditDigests are sha256 digests of the pcap bytes of one Deblur
// and one Translate call, recorded while both edits still ran their own
// batch-1 reverse loop, before they moved onto the Scheduler.
var goldenEditDigests = map[string]string{
	"deblur/amazon/tcp":     "99e565418c4a3afbc272b493718a7ddeb60bc42d5b6ddfe19e667ab96f8b21c9",
	"translate/teams/s=0.8": "1622c77c781c658981129a599f2cc399e0a18dfd828bcb7e9a9896fe212eda33",
}

// TestGoldenEditDigests pins the edits' pcap bytes across versions. It
// runs on a Save/Load copy of the shared synthesizer, so the call
// counter that seeds the edits starts at 0 whatever ran before.
func TestGoldenEditDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64, not %s", runtime.GOARCH)
	}
	var buf bytes.Buffer
	if err := sharedSynth(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := flowsForShared()
	if err != nil {
		t.Fatal(err)
	}
	src := ds["amazon"][0]
	check := func(key string, res *GenerateResult, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		sum := sha256.Sum256(pcapBytes(t, res.Flows))
		if got := hex.EncodeToString(sum[:]); got != goldenEditDigests[key] {
			t.Errorf("%s: digest %s, want %s", key, got, goldenEditDigests[key])
		}
	}
	res, err := s.Deblur(src, "amazon", []FieldMask{MaskTCP})
	check("deblur/amazon/tcp", res, err)
	res, err = s.Translate(src, "teams", 0.8)
	check("translate/teams/s=0.8", res, err)
}

// TestGoldenSeededDigests pins seeded output bytes across versions:
// one digest per class × {full DDPM, 4-step DDIM}.
func TestGoldenSeededDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Go fuses x*y+z into one FMA on some architectures, which
		// rounds differently; the digests were recorded on amd64.
		t.Skipf("golden digests are recorded on amd64, not %s", runtime.GOARCH)
	}
	s := sharedSynth(t)
	defer s.SetDDIMSteps(fastConfig().DDIMSteps)
	for _, class := range sharedClass {
		for _, ddim := range []int{0, 4} {
			key := class + "/ddpm"
			if ddim > 0 {
				key = fmt.Sprintf("%s/ddim%d", class, ddim)
			}
			s.SetDDIMSteps(ddim)
			res, err := s.GenerateSeeded(class, 3, 20231128)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			sum := sha256.Sum256(pcapBytes(t, res.Flows))
			got := hex.EncodeToString(sum[:])
			if got != goldenDigests[key] {
				t.Errorf("%s: digest %s, want %s", key, got, goldenDigests[key])
			}
		}
	}
}
