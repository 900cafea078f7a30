package eval

import (
	"strings"
	"testing"
)

func TestRunFidelity(t *testing.T) {
	cfg := tinyConfig("amazon")
	cfg.Train, cfg.Test, cfg.Synth = 8, 8, 4
	res, err := RunFidelity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 { // real control, heuristic, hmm, ours
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]FidelityRow{}
	for _, r := range res.Rows {
		if r.SizeKS < 0 || r.SizeKS > 1 || r.GapKS < 0 || r.GapKS > 1 {
			t.Fatalf("%s KS out of range: %+v", r.Name, r)
		}
		byName[r.Name] = r
	}
	// The real control sets the floor: no generator should beat it by
	// a wide margin (that would mean leakage), and the HMM covers no
	// header features.
	if byName["hmm"].HeaderCoverage != 0 {
		t.Error("hmm should cover zero header features")
	}
	if byName["real (control)"].TCPConformance != 1 {
		t.Errorf("real control conformance = %v", byName["real (control)"].TCPConformance)
	}
	// The heuristic baseline's statelessness shows up as low TCP
	// conformance relative to real.
	if byName["heuristic"].TCPConformance >= byName["real (control)"].TCPConformance {
		t.Error("heuristic should be less conformant than real traffic")
	}
	rep := FidelityReport(res)
	if !strings.Contains(rep, "diffusion (ours)") {
		t.Error("fidelity report missing our row")
	}
	checkDigest(t, "fidelity report", []byte(rep), "2ef9bf69f09cd6f3541650433a707109961527f13285a4d25ba836b6d87f3d71")
}

func TestRunFidelityValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Classes = []string{"amazon", "teams"}
	if _, err := RunFidelity(cfg); err == nil {
		t.Fatal("two classes should fail: the study scores one")
	}
}
