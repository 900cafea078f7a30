package gan

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// goldenTrainDigest is the SHA-256 of a seeded training run's loss
// curves and of records sampled from the result, recorded before the
// generator step stopped backpropagating into the discriminator's
// weights: the discriminator's weight gradients from that step were
// always discarded, so skipping them moves no bit.
const goldenTrainDigest = "2ead3dccf34e28ef53cec3ffca200bc5f253b73043d687d3127454c2f3715688"

func TestGoldenTrainDigest(t *testing.T) {
	features, labels := twoClusterData(64, 3)
	cfg := DefaultConfig()
	cfg.Steps = 40
	cfg.Seed = 9
	m, err := Train(features, labels, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, v := range m.DLosses {
		put(v)
	}
	for _, v := range m.GLosses {
		put(v)
	}
	gf, gl := m.Generate(24, 7)
	for i, row := range gf {
		for _, v := range row {
			put(v)
		}
		put(float64(gl[i]))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenTrainDigest {
		t.Fatalf("training digest %s, want %s", got, goldenTrainDigest)
	}
}
