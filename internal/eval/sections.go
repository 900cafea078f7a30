package eval

import "fmt"

// PerClassGANResult reports the Synthetic/Real accuracies when a
// separate GAN is trained per class (the paper finds "negligible
// improvement": still ~0.20 micro).
type PerClassGANResult struct {
	SynthRealMicro float64
	SynthRealMacro float64
}

// RunPerClassGAN executes the §2.3 supplemental experiment: one GAN
// per class, then Synthetic/Real classification.
func RunPerClassGAN(c Config) (*PerClassGANResult, error) {
	if err := c.validate(false); err != nil {
		return nil, err
	}
	seed := c.Seed + perClassGANSeed
	train, test, err := c.split(seed)
	if err != nil {
		return nil, err
	}
	byClass := train.ByClass()

	// One GAN per class, over a one-class label space, so labels are
	// known by construction. Like the joint baseline, each GAN models
	// the complete record including the identifier fields, which are
	// dropped again before classification.
	var synth labelled
	for ci, class := range c.Classes {
		space := MicroSpace([]string{class})
		model, err := c.trainGAN(byClass[class], space, seed+uint64(ci)*17)
		if err != nil {
			return nil, fmt.Errorf("class %q: %w", class, err)
		}
		rows := ganRecords(model, c.Synth, seed+uint64(ci)*31, space)
		synth.x = append(synth.x, rows.x...)
		synth.labels = append(synth.labels, rows.labels...)
	}

	cell, err := c.rfCell(synth, c.features(test.Flows, GranularityNetFlow), seed+31)
	if err != nil {
		return nil, err
	}
	return &PerClassGANResult{SynthRealMicro: cell.Micro, SynthRealMacro: cell.Macro}, nil
}
