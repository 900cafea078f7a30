package lora_test

import (
	"testing"

	"trafficdiff/internal/core"
	"trafficdiff/internal/lora"
)

// TestGoldenOutputVersion holds this package's golden digests to the
// current core.OutputVersion: re-recording them bumps the version
// traced folds into its checkpoint coordinate, and a bump re-records
// them.
func TestGoldenOutputVersion(t *testing.T) {
	if lora.GoldenOutputVersion != core.OutputVersion {
		t.Fatalf("golden digests recorded at output version %d, core.OutputVersion is %d", lora.GoldenOutputVersion, core.OutputVersion)
	}
}
