package eval

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"trafficdiff/internal/core"
	"trafficdiff/internal/flow"
)

// This file is the fidelity-vs-speed frontier, the paper's §4
// "generative speed" measurement: every sampler budget, full DDPM
// included, is measured for both throughput (flows/s) and fidelity
// (Table 2's Synthetic/Real RF accuracy) against a full-budget
// reference, beside the GAN baseline's one-shot records/s.
// GateFrontier is the pure pass/fail check `traceval frontier`
// enforces in CI, so a sampler regression that silently degrades trace
// realism fails the build rather than the downstream task.

// FrontierPoint is one measured configuration.
type FrontierPoint struct {
	Steps     int     `json:"steps"`
	FlowsPerS float64 `json:"flows_per_s"`
	// Speedup is FlowsPerS relative to the reference point (1.0 there).
	Speedup float64 `json:"speedup"`
	// RFMicro/RFMacro are Synthetic/Real RF accuracies: a forest trained
	// on this point's generated flows, tested on held-out real flows.
	RFMicro float64 `json:"rf_micro"`
	RFMacro float64 `json:"rf_macro"`
	// Reference marks the full-budget baseline the gate compares
	// against.
	Reference bool `json:"reference,omitempty"`
}

// FrontierReport is the sweep output.
type FrontierReport struct {
	Points []FrontierPoint `json:"points"`
	// GANRecordsPerS is the GAN baseline's one-shot generation rate. It
	// emits NetFlow records, not packets, so it has no fidelity point.
	GANRecordsPerS float64 `json:"gan_records_per_s"`
}

// pointName labels a budget: "ddpm" for 0, else "N-step".
func pointName(steps int) string {
	if steps == 0 {
		return "ddpm"
	}
	return fmt.Sprintf("%d-step", steps)
}

// ReferencePoint returns the report's reference point, or an error
// when it is missing or ambiguous.
func (r *FrontierReport) ReferencePoint() (FrontierPoint, error) {
	var ref FrontierPoint
	found := false
	for _, p := range r.Points {
		if !p.Reference {
			continue
		}
		if found {
			return ref, fmt.Errorf("eval: frontier report has multiple reference points")
		}
		ref, found = p, true
	}
	if !found {
		return ref, fmt.Errorf("eval: frontier report has no reference point")
	}
	return ref, nil
}

// RunFrontier trains one synthesizer at seed c.Seed and measures the
// reference DDIM budget refSteps (the paper's full-fidelity
// configuration) and every budget in steps (0 is full DDPM: T model
// evaluations per flow) over identical weights: each point is a
// Save/Load clone of the trained model with only the sampler budget
// changed, so the frontier isolates exactly the lever under study.
// Each point generates Synth flows per class — both the timed work and
// the RF training set, judged against the Test split.
func RunFrontier(c Config, refSteps int, steps []int) (*FrontierReport, error) {
	if err := c.validate(false); err != nil {
		return nil, err
	}
	if refSteps <= 0 || refSteps > c.Model.TimeSteps {
		return nil, fmt.Errorf("eval: reference steps %d outside schedule T=%d", refSteps, c.Model.TimeSteps)
	}
	train, test, err := c.split(c.Seed)
	if err != nil {
		return nil, err
	}
	synth, err := c.fineTune(train)
	if err != nil {
		return nil, err
	}
	var ckpt bytes.Buffer
	if err := synth.Save(&ckpt); err != nil {
		return nil, err
	}
	snapshot := ckpt.Bytes()
	testNprint := c.features(test.Flows, GranularityNprint)

	rep := &FrontierReport{}
	ref, err := c.measureFrontierPoint(snapshot, refSteps, testNprint)
	if err != nil {
		return nil, fmt.Errorf("reference point: %w", err)
	}
	ref.Reference = true
	ref.Speedup = 1
	rep.Points = append(rep.Points, ref)

	for _, n := range steps {
		p, err := c.measureFrontierPoint(snapshot, n, testNprint)
		if err != nil {
			return nil, fmt.Errorf("point %s: %w", pointName(n), err)
		}
		p.Speedup = p.FlowsPerS / ref.FlowsPerS
		rep.Points = append(rep.Points, p)
	}

	if rep.GANRecordsPerS, err = c.ganRecordsPerS(train.Flows); err != nil {
		return nil, fmt.Errorf("gan: %w", err)
	}
	return rep, nil
}

// ganRecordsPerS trains the GAN baseline as Table 2 does and times one
// batch of one-shot generation.
func (c Config) ganRecordsPerS(trainFlows []*flow.Flow) (float64, error) {
	model, err := c.trainGAN(trainFlows, MicroSpace(c.Classes), c.Seed+2)
	if err != nil {
		return 0, err
	}
	const batch = 2000
	start := time.Now()
	recs, _ := model.Generate(batch, c.Seed+3)
	return float64(len(recs)) / time.Since(start).Seconds(), nil
}

// measureFrontierPoint loads a fresh synthesizer from the snapshot,
// applies the point's budget, and measures throughput plus
// Synthetic/Real RF accuracy.
func (c Config) measureFrontierPoint(snapshot []byte, steps int, test labelled) (FrontierPoint, error) {
	pt := FrontierPoint{Steps: steps}
	s, err := core.Load(bytes.NewReader(snapshot))
	if err != nil {
		return pt, err
	}
	s.SetDDIMSteps(steps)

	start := time.Now()
	gen, err := s.GenerateBalanced(c.Synth)
	if err != nil {
		return pt, err
	}
	pt.FlowsPerS = float64(len(gen)) / time.Since(start).Seconds()

	cell, err := c.rfCell(c.features(gen, GranularityNprint), test, c.Seed)
	if err != nil {
		return pt, err
	}
	pt.RFMicro, pt.RFMacro = cell.Micro, cell.Macro
	return pt, nil
}

// GateFrontier is the CI fidelity gate: every swept point must hold
// Synthetic/Real micro accuracy within tol (absolute) of the
// reference. It is a pure function of the report so a deliberately-bad
// report is unit-testable.
func GateFrontier(rep *FrontierReport, tol float64) error {
	if tol < 0 {
		return fmt.Errorf("eval: negative frontier tolerance %v", tol)
	}
	ref, err := rep.ReferencePoint()
	if err != nil {
		return err
	}
	for _, p := range rep.Points {
		if p.Reference {
			continue
		}
		if p.RFMicro < ref.RFMicro-tol {
			return fmt.Errorf("eval: frontier point %s micro accuracy %.3f below reference %.3f - tol %.3f",
				pointName(p.Steps), p.RFMicro, ref.RFMicro, tol)
		}
	}
	return nil
}

// FrontierReportString renders the frontier as the table EXPERIMENTS.md
// reproduces.
func FrontierReportString(rep *FrontierReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %12s %9s %9s %9s\n", "steps", "flows/s", "speedup", "rf-micro", "rf-macro")
	fmt.Fprintln(&b, strings.Repeat("-", 51))
	for _, p := range rep.Points {
		mark := ""
		if p.Reference {
			mark = " (ref)"
		}
		fmt.Fprintf(&b, "%8s %12.2f %8.2fx %9.3f %9.3f%s\n",
			pointName(p.Steps), p.FlowsPerS, p.Speedup, p.RFMicro, p.RFMacro, mark)
	}
	fmt.Fprintf(&b, "gan (one-shot netflow records): %.0f records/s\n", rep.GANRecordsPerS)
	return b.String()
}
