package eval

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"trafficdiff/internal/core"
	"trafficdiff/internal/diffusion"
	"trafficdiff/internal/flow"
)

// This file is the design-choice sweep. A knob is one core.Config
// field the pipeline fixes by choice; set gives a model config the
// knob's i-th value, and the first value is the reference the others
// are compared against. `traceval frontier` sweeps steps (the paper's
// §4 speed lever) and gates it with GateFrontier; `traceval ablate`
// sweeps the other six.
type sweepKnob struct {
	name   string
	values []string
	set    func(m *core.Config, i int)
}

// sweepKnobs is the knob table.
var sweepKnobs = []sweepKnob{
	{"steps", []string{"64-step", "ddpm", "4-step", "8-step", "16-step"},
		func(m *core.Config, i int) { m.DDIMSteps = []int{64, 0, 4, 8, 16}[i] }},
	{"controlnet", []string{"on", "off"}, func(m *core.Config, i int) { m.UseControlNet = i == 0 }},
	{"constantsnap", []string{"on", "off"}, func(m *core.Config, i int) { m.ConstantSnap = i == 0 }},
	{"guidance", []string{"2", "0", "1", "4"}, func(m *core.Config, i int) { m.GuidanceScale = []float64{2, 0, 1, 4}[i] }},
	{"lorarank", []string{"8", "2", "32"}, func(m *core.Config, i int) { m.LoRARank = []int{8, 2, 32}[i] }},
	{"downw", []string{"8", "16", "32"}, func(m *core.Config, i int) { m.DownW = []int{8, 16, 32}[i] }},
	{"schedule", []string{"cosine", "linear"}, func(m *core.Config, i int) {
		m.Schedule = []diffusion.ScheduleKind{diffusion.ScheduleCosine, diffusion.ScheduleLinear}[i]
	}},
}

// SweepPoint is one measured value of a knob.
type SweepPoint struct {
	Value     string
	FlowsPerS float64
	Speedup   float64 // FlowsPerS relative to the reference
	// RFMicro/RFMacro are Synthetic/Real RF accuracies: a forest trained
	// on the point's generated flows, tested on held-out real flows.
	RFMicro, RFMacro float64
	// RawCell and RawProtocol are the mean per-cell and per-row template
	// compliance before constraint projection.
	RawCell, RawProtocol float64
	FineTuneLoss         float64 // the last LoRA fine-tuning loss
}

// SweepReport is one knob's sweep; Points[0] is the reference.
type SweepReport struct {
	Knob   string
	Points []SweepPoint
	// GANRecordsPerS is the GAN baseline's one-shot rate, one per RunSweep
	// call; it emits NetFlow records, so it has no fidelity point.
	GANRecordsPerS float64
}

// RunSweep measures every value of each knob at seed c.Seed. It first
// checks every point: an unknown knob, a sampler budget beyond the
// schedule or a model core.CheckConfig refuses is an error before any
// work. Each point then copies c.Model with the knob's field set and
// samples Synth flows per class from it fine-tuned on Table 2's split,
// once per training key (core.Config.TrainingKey); those flows train
// the point's forest, judged against the Test split. A configuration
// is measured once per call: the knobs' reference points are one
// configuration, and every table divides by that one reading. The GAN
// trains once per call.
func RunSweep(c Config, knobs ...string) ([]*SweepReport, error) {
	if err := c.validate(false); err != nil {
		return nil, err
	}
	var ks []sweepKnob
	for _, knob := range knobs {
		ki := slices.IndexFunc(sweepKnobs, func(k sweepKnob) bool { return k.name == knob })
		if ki < 0 {
			return nil, fmt.Errorf("eval: unknown knob %q", knob)
		}
		ks = append(ks, sweepKnobs[ki])
		for i, value := range sweepKnobs[ki].values {
			m := c.Model
			sweepKnobs[ki].set(&m, i)
			if m.DDIMSteps > m.TimeSteps {
				return nil, fmt.Errorf("eval: %s %s: budget beyond schedule T=%d", knob, value, m.TimeSteps)
			}
			if _, _, err := core.CheckConfig(m, c.Classes); err != nil {
				return nil, fmt.Errorf("eval: %s %s: %w", knob, value, err)
			}
		}
	}
	train, test, err := c.split(c.Seed)
	if err != nil {
		return nil, err
	}
	gan, err := c.ganRecordsPerS(train.Flows)
	if err != nil {
		return nil, fmt.Errorf("gan: %w", err)
	}
	testNprint := c.features(test.Flows, GranularityNprint)
	trained, losses := map[core.Config]*core.Synthesizer{}, map[core.Config]float64{}
	measured := map[core.Config]SweepPoint{}
	var reps []*SweepReport
	for _, k := range ks {
		rep := &SweepReport{Knob: k.name, GANRecordsPerS: gan}
		for i, value := range k.values {
			pc := c
			k.set(&pc.Model, i)
			key := pc.Model.TrainingKey()
			if trained[key] == nil {
				synth, tr, err := pc.fineTune(train)
				if err != nil {
					return nil, fmt.Errorf("%s %s: %w", k.name, value, err)
				}
				trained[key], losses[key] = synth, tr.FineTuneLosses[len(tr.FineTuneLosses)-1]
			}
			p, ok := measured[pc.Model]
			if !ok {
				if p, err = pc.measurePoint(trained[key], testNprint); err != nil {
					return nil, fmt.Errorf("%s %s: %w", k.name, value, err)
				}
				measured[pc.Model] = p
			}
			p.Value, p.FineTuneLoss = value, losses[key]
			rep.Points = append(rep.Points, p)
		}
		for i := range rep.Points {
			rep.Points[i].Speedup = rep.Points[i].FlowsPerS / rep.Points[0].FlowsPerS
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

// measurePoint samples trained under c.Model and measures throughput,
// compliance and Synthetic/Real RF accuracy against test. The first
// timed pass is Generate, whose flows are scored; the others replay its
// roots, timing the same work without moving any seeded cell.
func (c Config) measurePoint(trained *core.Synthesizer, test labelled) (SweepPoint, error) {
	var pt SweepPoint
	synth, err := trained.WithSampling(c.Model)
	if err != nil {
		return pt, err
	}
	first := make([]*core.GenerateResult, len(c.Classes))
	pt.FlowsPerS, err = medianRate(len(c.Classes)*c.Synth, func() (err error) {
		for ci, class := range c.Classes {
			if first[ci] == nil {
				first[ci], err = synth.Generate(class, c.Synth)
			} else {
				_, err = synth.GenerateSeeded(class, c.Synth, first[ci].Root)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return pt, err
	}
	var gen []*flow.Flow
	for _, res := range first {
		gen = append(gen, res.Flows...)
		pt.RawCell += res.RawCellCompliance
		pt.RawProtocol += res.RawCompliance
	}
	pt.RawCell /= float64(len(c.Classes))
	pt.RawProtocol /= float64(len(c.Classes))
	cell, err := c.rfCell(c.features(gen, GranularityNprint), test, c.Seed)
	pt.RFMicro, pt.RFMacro = cell.Micro, cell.Macro
	return pt, err
}

// medianRate is the median units/s of five calls of pass, each making
// n units: one wall-clock reading moves by tens of percent.
func medianRate(n int, pass func() error) (float64, error) {
	rates := make([]float64, 5)
	for i := range rates {
		start := time.Now()
		if err := pass(); err != nil {
			return 0, err
		}
		rates[i] = float64(n) / time.Since(start).Seconds()
	}
	slices.Sort(rates)
	return rates[len(rates)/2], nil
}

// ganRecordsPerS trains the GAN baseline as Table 2 does and times
// generating one batch of one-shot records from one seed.
func (c Config) ganRecordsPerS(trainFlows []*flow.Flow) (float64, error) {
	model, err := c.trainGAN(trainFlows, MicroSpace(c.Classes), c.Seed+2)
	if err != nil {
		return 0, err
	}
	const batch = 2000
	return medianRate(batch, func() error {
		model.Generate(batch, c.Seed+3)
		return nil
	})
}

// GateFrontier is the CI fidelity gate on a steps sweep: every point
// must hold Synthetic/Real micro accuracy within tol (absolute) of the
// reference. It is a pure function of the report so a deliberately-bad
// report is unit-testable.
func GateFrontier(rep *SweepReport, tol float64) error {
	if tol < 0 {
		return fmt.Errorf("eval: negative frontier tolerance %v", tol)
	}
	if len(rep.Points) == 0 {
		return fmt.Errorf("eval: frontier report has no points")
	}
	ref := rep.Points[0]
	for _, p := range rep.Points[1:] {
		if p.RFMicro < ref.RFMicro-tol {
			return fmt.Errorf("eval: frontier point %s micro accuracy %.3f below reference %.3f - tol %.3f",
				p.Value, p.RFMicro, ref.RFMicro, tol)
		}
	}
	return nil
}

// SweepReportString renders one knob's table as EXPERIMENTS.md
// reproduces it; the call's GAN rate is the caller's to print once.
func SweepReportString(rep *SweepReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12s %10s %8s %8s %8s %8s %9s %8s\n",
		rep.Knob, "flows/s", "speedup", "rf-micro", "rf-macro", "raw-cell", "raw-proto", "ft-loss")
	fmt.Fprintln(&b, strings.Repeat("-", 80))
	for i, p := range rep.Points {
		mark := ""
		if i == 0 {
			mark = " (ref)"
		}
		fmt.Fprintf(&b, "%12s %10.2f %7.2fx %8.3f %8.3f %8.3f %9.3f %8.4f%s\n",
			p.Value, p.FlowsPerS, p.Speedup, p.RFMicro, p.RFMacro, p.RawCell, p.RawProtocol, p.FineTuneLoss, mark)
	}
	return b.String()
}
