package eval

import (
	"strings"
	"testing"
)

// goodReport builds a plausible healthy frontier: int8 few-step points
// much faster than the fp32/64-step reference with accuracy intact.
func goodReport() *FrontierReport {
	return &FrontierReport{Points: []FrontierPoint{
		{Precision: "fp32", Steps: 64, FlowsPerS: 10, Speedup: 1, RFMicro: 0.80, RFMacro: 0.90, Reference: true},
		{Precision: "fp32", Steps: 8, FlowsPerS: 60, Speedup: 6, RFMicro: 0.78, RFMacro: 0.88},
		{Precision: "int8", Steps: 8, FlowsPerS: 70, Speedup: 7, RFMicro: 0.79, RFMacro: 0.89},
		{Precision: "int8", Steps: 4, FlowsPerS: 120, Speedup: 12, RFMicro: 0.76, RFMacro: 0.85},
	}}
}

func TestGateFrontierPasses(t *testing.T) {
	if err := GateFrontier(goodReport(), 0.05, 2); err != nil {
		t.Fatalf("healthy frontier failed the gate: %v", err)
	}
}

// TestGateFrontierCatchesBadFidelity is the deliberately-bad
// configuration the acceptance criteria require: a quantized point
// whose accuracy collapsed must fail the gate.
func TestGateFrontierCatchesBadFidelity(t *testing.T) {
	rep := goodReport()
	rep.Points[3].RFMicro = 0.40 // int8/4-step collapsed
	err := GateFrontier(rep, 0.05, 2)
	if err == nil {
		t.Fatal("collapsed int8 point passed the fidelity gate")
	}
	if !strings.Contains(err.Error(), "int8/4-step") {
		t.Fatalf("gate error does not name the failing point: %v", err)
	}
}

func TestGateFrontierCatchesMissingSpeedup(t *testing.T) {
	rep := goodReport()
	for i := range rep.Points {
		if rep.Points[i].Precision == "int8" {
			rep.Points[i].Speedup = 1.1 // int8 barely faster: not worth shipping
		}
	}
	if err := GateFrontier(rep, 0.05, 2); err == nil {
		t.Fatal("sub-2x int8 frontier passed the speedup gate")
	}
}

func TestGateFrontierRejectsMalformedReports(t *testing.T) {
	// No reference point.
	rep := goodReport()
	rep.Points[0].Reference = false
	if err := GateFrontier(rep, 0.05, 0); err == nil {
		t.Fatal("report without a reference passed")
	}
	// Two reference points.
	rep = goodReport()
	rep.Points[1].Reference = true
	if err := GateFrontier(rep, 0.05, 0); err == nil {
		t.Fatal("report with two references passed")
	}
	// Negative tolerance is a configuration bug, not a lenient gate.
	if err := GateFrontier(goodReport(), -0.1, 0); err == nil {
		t.Fatal("negative tolerance accepted")
	}
}

// TestRunFrontierSweep runs the real sweep end to end at test scale:
// every configured point must appear with positive throughput and
// in-range accuracy, the reference must be fp32 at RefSteps, and
// few-step points must be faster than the reference.
func TestRunFrontierSweep(t *testing.T) {
	cfg := DefaultFrontierConfig()
	cfg.TrainFlows = 6
	cfg.TestFlows = 4
	// Each point's throughput is one wall-clock reading, and "faster
	// than the reference" below compares two of them: keep the timed
	// work long enough (tens of ms at the reference) that a scheduler
	// stall on a busy host cannot flip the order.
	cfg.GenFlows = 12
	cfg.Steps = []int{4, 8}
	cfg.Synth.BaseSteps = 12
	cfg.Synth.FineTuneSteps = 16
	cfg.RF = tinyRF()
	rep, err := RunFrontier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 1+len(cfg.Precisions)*len(cfg.Steps) {
		t.Fatalf("points = %d, want %d", len(rep.Points), 1+len(cfg.Precisions)*len(cfg.Steps))
	}
	ref, err := rep.ReferencePoint()
	if err != nil {
		t.Fatal(err)
	}
	if ref.Precision != "fp32" || ref.Steps != cfg.RefSteps || ref.Speedup != 1 {
		t.Fatalf("reference point: %+v", ref)
	}
	for _, p := range rep.Points {
		if p.FlowsPerS <= 0 {
			t.Fatalf("point %s/%d: non-positive throughput %v", p.Precision, p.Steps, p.FlowsPerS)
		}
		if p.RFMicro < 0 || p.RFMicro > 1 || p.RFMacro < 0 || p.RFMacro > 1 {
			t.Fatalf("point %s/%d: accuracy out of range %+v", p.Precision, p.Steps, p)
		}
		if !p.Reference && p.Speedup <= 1 {
			t.Errorf("few-step point %s/%d not faster than 64-step reference (%.2fx)", p.Precision, p.Steps, p.Speedup)
		}
	}
	out := FrontierReportString(rep)
	for _, want := range []string{"precision", "(ref)", "int8"} {
		if !strings.Contains(out, want) {
			t.Errorf("frontier report missing %q:\n%s", want, out)
		}
	}
}

func TestRunFrontierValidation(t *testing.T) {
	cfg := DefaultFrontierConfig()
	cfg.GenFlows = 0
	if _, err := RunFrontier(cfg); err == nil {
		t.Fatal("zero GenFlows should fail")
	}
	cfg = DefaultFrontierConfig()
	cfg.RefSteps = cfg.Synth.TimeSteps + 1
	if _, err := RunFrontier(cfg); err == nil {
		t.Fatal("reference budget beyond schedule T should fail")
	}
}
