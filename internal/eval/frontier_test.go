package eval

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// goodReport builds a plausible healthy frontier: few-step points much
// faster than the 64-step reference with accuracy intact.
func goodReport() *FrontierReport {
	return &FrontierReport{Points: []FrontierPoint{
		{Steps: 64, FlowsPerS: 10, Speedup: 1, RFMicro: 0.80, RFMacro: 0.90, Reference: true},
		{Steps: 16, FlowsPerS: 35, Speedup: 3.5, RFMicro: 0.79, RFMacro: 0.89},
		{Steps: 8, FlowsPerS: 60, Speedup: 6, RFMicro: 0.78, RFMacro: 0.88},
		{Steps: 4, FlowsPerS: 100, Speedup: 10, RFMicro: 0.76, RFMacro: 0.85},
	}}
}

// frontierTestConfig is the CPU-budget sweep's small spatial model with
// a schedule long enough that a 64-step reference budget is meaningful,
// and training cut short for tests.
func frontierTestConfig() Config {
	cfg := tinyConfig("amazon", "teams")
	cfg.Model.TimeSteps = 80
	cfg.Model.BaseSteps = 12
	cfg.Model.FineTuneSteps = 16
	cfg.Seed = 29
	return cfg
}

func TestGateFrontierPasses(t *testing.T) {
	if err := GateFrontier(goodReport(), 0.05); err != nil {
		t.Fatalf("healthy frontier failed the gate: %v", err)
	}
}

// TestGateFrontierCatchesBadFidelity is the deliberately-bad
// configuration the acceptance criteria require: a few-step point
// whose accuracy collapsed must fail the gate.
func TestGateFrontierCatchesBadFidelity(t *testing.T) {
	rep := goodReport()
	rep.Points[3].RFMicro = 0.40 // 4-step collapsed
	err := GateFrontier(rep, 0.05)
	if err == nil {
		t.Fatal("collapsed 4-step point passed the fidelity gate")
	}
	if !strings.Contains(err.Error(), "4-step") {
		t.Fatalf("gate error does not name the failing point: %v", err)
	}
}

func TestGateFrontierRejectsMalformedReports(t *testing.T) {
	// No reference point.
	rep := goodReport()
	rep.Points[0].Reference = false
	if err := GateFrontier(rep, 0.05); err == nil {
		t.Fatal("report without a reference passed")
	}
	// Two reference points.
	rep = goodReport()
	rep.Points[1].Reference = true
	if err := GateFrontier(rep, 0.05); err == nil {
		t.Fatal("report with two references passed")
	}
	// Negative tolerance is a configuration bug, not a lenient gate.
	if err := GateFrontier(goodReport(), -0.1); err == nil {
		t.Fatal("negative tolerance accepted")
	}
}

// TestRunFrontierSweep runs the real sweep end to end at test scale:
// every configured point must appear with positive throughput and
// in-range accuracy, the reference must run RefSteps, points with
// fewer model evaluations must be faster than the reference, full DDPM
// must be slower than 4 steps, and the one-shot GAN must outrun every
// diffusion point.
func TestRunFrontierSweep(t *testing.T) {
	cfg := frontierTestConfig()
	cfg.Train, cfg.Test = 6, 4
	// Each point's throughput is one wall-clock reading, and "faster
	// than the reference" below compares two of them: keep the timed
	// work long enough (tens of ms at the reference) that a scheduler
	// stall on a busy host cannot flip the order.
	cfg.Synth = 12
	const refSteps = 64
	steps := []int{0, 4, 8}
	rep, err := RunFrontier(cfg, refSteps, steps)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 1+len(steps) {
		t.Fatalf("points = %d, want %d", len(rep.Points), 1+len(steps))
	}
	ref, err := rep.ReferencePoint()
	if err != nil {
		t.Fatal(err)
	}
	if ref.Steps != refSteps || ref.Speedup != 1 {
		t.Fatalf("reference point: %+v", ref)
	}
	bySteps := map[int]FrontierPoint{}
	fastest := 0.0
	for _, p := range rep.Points {
		if p.FlowsPerS <= 0 {
			t.Fatalf("point %s: non-positive throughput %v", pointName(p.Steps), p.FlowsPerS)
		}
		if p.RFMicro < 0 || p.RFMicro > 1 || p.RFMacro < 0 || p.RFMacro > 1 {
			t.Fatalf("point %s: accuracy out of range %+v", pointName(p.Steps), p)
		}
		evals := p.Steps
		if evals == 0 {
			evals = cfg.Model.TimeSteps
		}
		if evals < refSteps && p.Speedup <= 1 {
			t.Errorf("point %s (%d evaluations) not faster than the %d-step reference (%.2fx)",
				pointName(p.Steps), evals, refSteps, p.Speedup)
		}
		if !p.Reference {
			bySteps[p.Steps] = p
		}
		fastest = math.Max(fastest, p.FlowsPerS)
	}
	// Full DDPM runs T=80 evaluations against 4: ≈ 20× the work, so
	// one wall-clock pair cannot flip the order.
	if ddpm, four := bySteps[0], bySteps[4]; ddpm.FlowsPerS >= four.FlowsPerS {
		t.Errorf("ddpm (%v flows/s) not slower than 4 steps (%v flows/s)", ddpm.FlowsPerS, four.FlowsPerS)
	}
	// The one-shot GAN outruns every diffusion point (records, not
	// packets).
	if rep.GANRecordsPerS <= fastest {
		t.Errorf("gan records/s (%v) should exceed the fastest point's flows/s (%v)", rep.GANRecordsPerS, fastest)
	}
	out := FrontierReportString(rep)
	for _, want := range []string{"steps", "(ref)", "rf-micro", "ddpm", "gan"} {
		if !strings.Contains(out, want) {
			t.Errorf("frontier report missing %q:\n%s", want, out)
		}
	}
	// Throughput is wall-clock; the RF columns are seeded.
	var rfCols strings.Builder
	for _, p := range rep.Points {
		fmt.Fprintf(&rfCols, "%s %v %v %v\n", pointName(p.Steps), p.RFMicro, p.RFMacro, p.Reference)
	}
	checkDigest(t, "frontier rf columns", []byte(rfCols.String()), "0bdb42d638abb26ce1904fcd6d12fc6a4bc2666cb675583f9937c1463ed12073")
}

func TestRunFrontierValidation(t *testing.T) {
	cfg := frontierTestConfig()
	if _, err := RunFrontier(cfg, 0, []int{4}); err == nil {
		t.Fatal("zero reference budget should fail")
	}
	if _, err := RunFrontier(cfg, cfg.Model.TimeSteps+1, []int{4}); err == nil {
		t.Fatal("reference budget beyond schedule T should fail")
	}
}
