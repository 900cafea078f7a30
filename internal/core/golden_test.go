package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"trafficdiff/internal/nprint"
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
// and one Translate call. Re-recorded when timestamps began following
// the flow's seed; goldenMatrixDigests shows no sampled bit moved.
var goldenEditDigests = map[string]string{
	"deblur/amazon/tcp":     "359fd3ad4fffd7bdf2fff97a0be52d1b1769618637639f87c4de31e59f11be29",
	"translate/teams/s=0.8": "343a1c8480aef87a8922d23c3023cf80ae5df704dbdf25c14cce8f1acf208b5c",
}

// goldenMatrixDigests are sha256 digests of the nprint.WriteCSV bytes
// of the unseeded calls' matrices, in the order TestGoldenEditDigests
// makes them. Matrices carry no timestamps, so they pin every sampled
// bit of the calls whose roots come from the call counter.
var goldenMatrixDigests = map[string]string{
	"deblur/amazon/tcp":     "9e8d43886ad3a5ddf4aa6d7d8091c08baa172c439012ffaa389395b7b9744853",
	"translate/teams/s=0.8": "2c6e7ffff5ac1150e7534ee5fbbd6f03be9a3fb8fe56f61b94ba6eaac8bc135d",
	"generate/amazon/3":     "3d66a3f02839c9873374458c2578752b54b9fe5785de7dfa00e589bf471afd11",
	"generate/teams/2":      "d83ca54e21218b94518b36d743668b143388059b7158f251ed37d623d6bf57d5",
}

// csvDigest is the sha256 of the matrices' nprint.WriteCSV bytes.
func csvDigest(t *testing.T, ms []*nprint.Matrix) string {
	t.Helper()
	var buf bytes.Buffer
	for _, m := range ms {
		if err := nprint.WriteCSV(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestGoldenEditDigests pins the edits' pcap bytes and the unseeded
// calls' matrices across versions. It runs on a savedCopy, so the call
// counter that roots them starts at 0 whatever ran before.
func TestGoldenEditDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64, not %s", runtime.GOARCH)
	}
	s := savedCopy(t)
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
		if want, ok := goldenEditDigests[key]; ok {
			sum := sha256.Sum256(pcapBytes(t, res.Flows))
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s: digest %s, want %s", key, got, want)
			}
		}
		if got := csvDigest(t, res.Matrices); got != goldenMatrixDigests[key] {
			t.Errorf("%s: matrix digest %s, want %s", key, got, goldenMatrixDigests[key])
		}
	}
	res, err := s.Deblur(src, "amazon", []FieldMask{MaskTCP})
	check("deblur/amazon/tcp", res, err)
	res, err = s.Translate(src, "teams", 0.8)
	check("translate/teams/s=0.8", res, err)
	res, err = s.Generate("amazon", 3)
	check("generate/amazon/3", res, err)
	res, err = s.Generate("teams", 2)
	check("generate/teams/2", res, err)
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
