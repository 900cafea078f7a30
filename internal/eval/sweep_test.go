package eval

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// goodReport builds a plausible healthy frontier: few-step points much
// faster than the 64-step reference with accuracy intact.
func goodReport() *SweepReport {
	return &SweepReport{Knob: "steps", Points: []SweepPoint{
		{Value: "64-step", FlowsPerS: 10, Speedup: 1, RFMicro: 0.80, RFMacro: 0.90},
		{Value: "16-step", FlowsPerS: 35, Speedup: 3.5, RFMicro: 0.79, RFMacro: 0.89},
		{Value: "8-step", FlowsPerS: 60, Speedup: 6, RFMicro: 0.78, RFMacro: 0.88},
		{Value: "4-step", FlowsPerS: 100, Speedup: 10, RFMicro: 0.76, RFMacro: 0.85},
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
	// No points, so no reference.
	if err := GateFrontier(&SweepReport{Knob: "steps"}, 0.05); err == nil {
		t.Fatal("report without points passed")
	}
	// Negative tolerance is a configuration bug, not a lenient gate.
	if err := GateFrontier(goodReport(), -0.1); err == nil {
		t.Fatal("negative tolerance accepted")
	}
}

// TestRunFrontierSweep runs the steps knob end to end at test scale:
// every point must appear with positive throughput and in-range
// accuracy, the reference must run 64 steps, points with fewer model
// evaluations must be faster than the reference, full DDPM must be
// slower than 4 steps, and the one-shot GAN must outrun every diffusion
// point.
func TestRunFrontierSweep(t *testing.T) {
	cfg := frontierTestConfig()
	cfg.Train, cfg.Test = 6, 4
	// Each point's throughput is the median of a few wall-clock passes,
	// and "faster than the reference" below compares two of them: keep
	// each pass long enough (tens of ms at the reference) that a
	// scheduler stall on a busy host cannot flip the order.
	cfg.Synth = 12
	reps, err := RunSweep(cfg, "steps")
	if err != nil {
		t.Fatal(err)
	}
	rep := reps[0]
	evals := map[string]int{"64-step": 64, "ddpm": cfg.Model.TimeSteps, "4-step": 4, "8-step": 8, "16-step": 16}
	if len(rep.Points) != len(evals) {
		t.Fatalf("points = %d, want %d", len(rep.Points), len(evals))
	}
	if ref := rep.Points[0]; ref.Value != "64-step" || ref.Speedup != 1 {
		t.Fatalf("reference point: %+v", ref)
	}
	byValue := map[string]SweepPoint{}
	fastest := 0.0
	for _, p := range rep.Points {
		if p.FlowsPerS <= 0 {
			t.Fatalf("point %s: non-positive throughput %v", p.Value, p.FlowsPerS)
		}
		if p.RFMicro < 0 || p.RFMicro > 1 || p.RFMacro < 0 || p.RFMacro > 1 {
			t.Fatalf("point %s: accuracy out of range %+v", p.Value, p)
		}
		if evals[p.Value] < 64 && p.Speedup <= 1 {
			t.Errorf("point %s (%d evaluations) not faster than the 64-step reference (%.2fx)",
				p.Value, evals[p.Value], p.Speedup)
		}
		byValue[p.Value] = p
		fastest = math.Max(fastest, p.FlowsPerS)
	}
	// Full DDPM runs T=80 evaluations against 4: ≈ 20× the work, so
	// one wall-clock pair cannot flip the order.
	if ddpm, four := byValue["ddpm"], byValue["4-step"]; ddpm.FlowsPerS >= four.FlowsPerS {
		t.Errorf("ddpm (%v flows/s) not slower than 4 steps (%v flows/s)", ddpm.FlowsPerS, four.FlowsPerS)
	}
	// The one-shot GAN outruns every diffusion point (records, not
	// packets).
	if rep.GANRecordsPerS <= fastest {
		t.Errorf("gan records/s (%v) should exceed the fastest point's flows/s (%v)", rep.GANRecordsPerS, fastest)
	}
	out := SweepReportString(rep)
	for _, want := range []string{"steps", "(ref)", "rf-micro", "raw-cell", "ddpm"} {
		if !strings.Contains(out, want) {
			t.Errorf("frontier report missing %q:\n%s", want, out)
		}
	}
	// Throughput is wall-clock; the RF columns are seeded. This digest
	// pins the 64-step, ddpm, 4- and 8-step rows, all sampled from one
	// fine-tune: the budget is a sampler-only field. TestRunSweepAllKnobs
	// pins the whole knob.
	var rfCols strings.Builder
	for i, p := range rep.Points[:4] {
		fmt.Fprintf(&rfCols, "%s %v %v %v\n", p.Value, p.RFMicro, p.RFMacro, i == 0)
	}
	checkDigest(t, "frontier rf columns", []byte(rfCols.String()), "0bdb42d638abb26ce1904fcd6d12fc6a4bc2666cb675583f9937c1463ed12073")
}

// seededColumns renders every seeded column of a sweep: all but the
// wall-clock flows/s, speedup and GAN records/s.
func seededColumns(rep *SweepReport) []byte {
	var b strings.Builder
	for _, p := range rep.Points {
		fmt.Fprintf(&b, "%s %s %v %v %v %v %v\n", rep.Knob, p.Value, p.RFMicro, p.RFMacro, p.RawCell, p.RawProtocol, p.FineTuneLoss)
	}
	return []byte(b.String())
}

// TestRunSweepValidation: every point is checked before any work, so
// the error is RunSweep's own ("eval: ..."), not a failed point's.
func TestRunSweepValidation(t *testing.T) {
	cases := map[string]struct {
		knob string
		edit func(*Config)
	}{
		"unknown knob":             {"dropout", func(*Config) {}},
		"one class":                {"controlnet", func(c *Config) { c.Classes = c.Classes[:1] }},
		"budget beyond schedule":   {"steps", func(c *Config) { c.Model.TimeSteps = 63 }},
		"rank beyond hidden width": {"lorarank", func(c *Config) { c.Model.Hidden = 16 }},
		"rows not divisible":       {"downw", func(c *Config) { c.Model.Rows = 15 }},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := frontierTestConfig()
			tc.edit(&cfg)
			_, err := RunSweep(cfg, tc.knob)
			if err == nil {
				t.Fatalf("RunSweep(%s) accepted %s", tc.knob, name)
			}
			if !strings.HasPrefix(err.Error(), "eval: ") {
				t.Fatalf("RunSweep(%s) failed after starting work: %v", tc.knob, err)
			}
		})
	}
	// A later knob is checked before the first one's work starts.
	if _, err := RunSweep(frontierTestConfig(), "steps", "dropout"); err == nil || !strings.HasPrefix(err.Error(), "eval: ") {
		t.Fatalf("RunSweep(steps, dropout) = %v, want an eval: error before any work", err)
	}
}

// TestRunSweepAllKnobs pins every knob's seeded columns at one seed,
// natively and under -tags purego, from one call over the whole table:
// points that share a training key sample one fine-tune, and each
// column must still equal what a fine-tune of its own would give.
func TestRunSweepAllKnobs(t *testing.T) {
	want := map[string]string{
		"steps":        "eec8e343cde65dd6a73d7938405e961284f9d17aafec971baa86e7b6a4e0d878",
		"controlnet":   "8853f85e4c42bb49ab81e63b1c1055eba40248af162fc2515e7691fae5f661ad",
		"constantsnap": "78bc817cad6094e8618e5e185fd82a7ceb5795e56e970d8c2aa4ecb17ae95559",
		"guidance":     "bd1b0f840503223820d97cb444d7e9e1648b07949bbc81ca08fa322a25f7da6e",
		"lorarank":     "97213e0a153fa83f8bad8ce72fd2027068554d8c3176ed03b67563dc7e68a8e4",
		"downw":        "e6834e4914e56ea09a0a3aa59335545862b2b5d8b24f861970b77e7b1723343d",
		"schedule":     "960eedd25d52ee389c7d6741675e009ef212a657b11f9e9b783de922fc3e4f13",
	}
	if len(want) != len(sweepKnobs) {
		t.Fatalf("digests for %d knobs, table has %d", len(want), len(sweepKnobs))
	}
	var knobs []string
	for _, k := range sweepKnobs {
		knobs = append(knobs, k.name)
	}
	cfg := frontierTestConfig()
	cfg.Train, cfg.Test, cfg.Synth = 6, 4, 4
	cfg.GAN.Steps = 1 // its records/s is wall-clock, pinned nowhere
	reps, err := RunSweep(cfg, knobs...)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		t.Run(knobs[i], func(t *testing.T) {
			if rep.Knob != knobs[i] {
				t.Fatalf("report %d is knob %q", i, rep.Knob)
			}
			checkDigest(t, rep.Knob+" seeded columns", seededColumns(rep), want[rep.Knob])
		})
	}
}

// TestRunSweepShapes asserts the ablation shapes EXPERIMENTS.md keeps,
// each as a mean over seeds 0-4 at fixed test sizes: one seed cannot
// carry a fidelity claim.
func TestRunSweepShapes(t *testing.T) {
	const seeds = 5
	knobs := []string{"controlnet", "constantsnap", "downw"}
	reps := map[string][]*SweepReport{}
	for _, knob := range knobs {
		reps[knob] = make([]*SweepReport, seeds)
	}
	// One sweep per seed covers every knob; the first of a seed's
	// subtests to run makes it, and the others wait for it.
	var once [seeds]sync.Once
	var got [seeds][]*SweepReport
	var errs [seeds]error
	t.Run("sweeps", func(t *testing.T) {
		for ki, knob := range knobs {
			for seed := range seeds {
				t.Run(fmt.Sprintf("%s/seed%d", knob, seed), func(t *testing.T) {
					t.Parallel()
					once[seed].Do(func() {
						cfg := tinyConfig("netflix", "amazon", "teams", "other")
						cfg.Train, cfg.Test, cfg.Synth, cfg.Packets = 10, 4, 4, 8
						cfg.Seed, cfg.Model.Seed = uint64(seed), uint64(seed)
						cfg.GAN.Steps = 1 // its records/s is wall-clock, asserted nowhere
						got[seed], errs[seed] = RunSweep(cfg, knobs...)
					})
					if errs[seed] != nil {
						t.Fatal(errs[seed])
					}
					reps[knob][seed] = got[seed][ki]
				})
			}
		}
	})
	if t.Failed() {
		return
	}
	// mean averages one column of value's point over the seeds.
	mean := func(knob, value string, col func(SweepPoint) float64) float64 {
		sum := 0.0
		for _, rep := range reps[knob] {
			for _, p := range rep.Points {
				if p.Value == value {
					sum += col(p)
				}
			}
		}
		return sum / seeds
	}
	rawCell := func(p SweepPoint) float64 { return p.RawCell }
	micro := func(p SweepPoint) float64 { return p.RFMicro }

	// ControlNet guidance raises pre-projection cell compliance.
	if on, off := mean("controlnet", "on", rawCell), mean("controlnet", "off", rawCell); on <= off {
		t.Errorf("controlnet: raw cell compliance on %.3f <= off %.3f", on, off)
	}
	// Constant pinning does not move Synthetic/Real micro accuracy by
	// as much as one held-out flow (1/16 of the 4x4 test split).
	if on, off := mean("constantsnap", "on", micro), mean("constantsnap", "off", micro); math.Abs(on-off) >= 1.0/16 {
		t.Errorf("constantsnap: Synthetic/Real micro on %.3f vs off %.3f differ by a held-out flow or more", on, off)
	}
	// Coarser columns raise pre-projection cell compliance at this
	// scale (the one-seed 11-class run does not; see EXPERIMENTS.md).
	if c8, c16, c32 := mean("downw", "8", rawCell), mean("downw", "16", rawCell), mean("downw", "32", rawCell); !(c8 < c16 && c16 < c32) {
		t.Errorf("downw: raw cell compliance 8/16/32 = %.3f/%.3f/%.3f, want rising", c8, c16, c32)
	}
}
