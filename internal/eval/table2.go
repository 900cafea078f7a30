package eval

import (
	"fmt"

	"trafficdiff/internal/rf"
)

// Cell is one Table 2 accuracy pair.
type Cell struct {
	Macro, Micro float64
}

// Table2Result holds the six scenario rows of the paper's Table 2.
type Table2Result struct {
	Classes []string

	RealRealNprint  Cell // Real/Real, nprint-formatted pcap
	RealRealNetFlow Cell // Real/Real, NetFlow
	RealSynthOurs   Cell // Real/Synthetic (Ours), nprint
	RealSynthGAN    Cell // Real/Synthetic (GAN), NetFlow
	SynthRealOurs   Cell // Synthetic/Real (Ours), nprint
	SynthRealGAN    Cell // Synthetic/Real (GAN), NetFlow

	// SynthRealOursRecall is the per-class (micro) recall of the
	// Synthetic/Real (Ours) scenario, aligned with Classes — the
	// per-class breakdown behind the paper's distribution-shift
	// discussion.
	SynthRealOursRecall []float64

	// Diagnostics.
	TrainFlows, TestFlows, SynthFlows int
}

// RunTable2 executes the full case study at seed c.Seed.
func RunTable2(c Config) (*Table2Result, error) {
	if err := c.validate(false); err != nil {
		return nil, err
	}
	train, test, err := c.split(c.Seed)
	if err != nil {
		return nil, err
	}
	res := &Table2Result{
		Classes:    c.Classes,
		TrainFlows: len(train.Flows),
		TestFlows:  len(test.Flows),
	}

	// Our diffusion pipeline.
	synth, _, err := c.fineTune(train)
	if err != nil {
		return nil, err
	}
	synthFlows, err := synth.GenerateBalanced(c.Synth)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	res.SynthFlows = len(synthFlows)

	// The GAN baseline on NetFlow features; its records carry their
	// generated micro label.
	micro := MicroSpace(c.Classes)
	model, err := c.trainGAN(train.Flows, micro, c.Seed+99)
	if err != nil {
		return nil, fmt.Errorf("gan: %w", err)
	}
	ganSynth := ganRecords(model, c.Synth*micro.K(), c.Seed+100, micro)

	trainNprint, testNprint := c.features(train.Flows, GranularityNprint), c.features(test.Flows, GranularityNprint)
	trainNetFlow, testNetFlow := c.features(train.Flows, GranularityNetFlow), c.features(test.Flows, GranularityNetFlow)
	oursNprint := c.features(synthFlows, GranularityNprint)
	for _, s := range []struct {
		name        string
		cell        *Cell
		train, test labelled
		seed        uint64
	}{
		{"real/real nprint", &res.RealRealNprint, trainNprint, testNprint, c.Seed},
		{"real/real netflow", &res.RealRealNetFlow, trainNetFlow, testNetFlow, c.Seed},
		{"real/synth ours", &res.RealSynthOurs, trainNprint, oursNprint, c.Seed},
		{"synth/real ours", &res.SynthRealOurs, oursNprint, testNprint, c.Seed},
		{"real/synth gan", &res.RealSynthGAN, trainNetFlow, ganSynth, c.Seed + 31},
		{"synth/real gan", &res.SynthRealGAN, ganSynth, testNetFlow, c.Seed + 31},
	} {
		if *s.cell, err = c.rfCell(s.train, s.test, s.seed); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}

	pred, truth, err := c.predict(oursNprint, testNprint, micro, c.Seed+61)
	if err != nil {
		return nil, fmt.Errorf("synth/real ours recall: %w", err)
	}
	cm, err := rf.NewConfusionMatrix(pred, truth, micro.K())
	if err != nil {
		return nil, fmt.Errorf("synth/real ours recall: %w", err)
	}
	res.SynthRealOursRecall = cm.PerClassRecall()
	return res, nil
}
