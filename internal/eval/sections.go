package eval

import (
	"fmt"

	"trafficdiff/internal/flow"
	"trafficdiff/internal/gan"
	"trafficdiff/internal/netflow"
	"trafficdiff/internal/rf"
	"trafficdiff/internal/workload"
)

// PerClassGANConfig parameterizes the §2.3 supplemental experiment:
// one GAN per class, then Synthetic/Real classification.
type PerClassGANConfig struct {
	Classes            []string
	TrainFlowsPerClass int
	TestFlowsPerClass  int
	SynthPerClass      int
	GAN                gan.Config
	RF                 rf.Config
	MaxPacketsPerFlow  int
	Seed               uint64
}

// DefaultPerClassGANConfig returns CPU-friendly settings.
func DefaultPerClassGANConfig() PerClassGANConfig {
	return PerClassGANConfig{
		Classes:            workload.ClassNames(),
		TrainFlowsPerClass: 24, TestFlowsPerClass: 8, SynthPerClass: 8,
		GAN: gan.DefaultConfig(), RF: rf.DefaultConfig(),
		MaxPacketsPerFlow: 32, Seed: 13,
	}
}

// PerClassGANResult reports the Synthetic/Real accuracies when a
// separate GAN is trained per class (the paper finds "negligible
// improvement": still ~0.20 micro).
type PerClassGANResult struct {
	SynthRealMicro float64
	SynthRealMacro float64
}

// RunPerClassGAN executes the experiment.
func RunPerClassGAN(cfg PerClassGANConfig) (*PerClassGANResult, error) {
	if len(cfg.Classes) < 2 {
		return nil, fmt.Errorf("eval: per-class GAN needs >= 2 classes")
	}
	total := cfg.TrainFlowsPerClass + cfg.TestFlowsPerClass
	ds, err := workload.Generate(workload.Config{
		Seed: cfg.Seed, FlowsPerClass: total, Only: cfg.Classes,
		MaxPacketsPerFlow: cfg.MaxPacketsPerFlow,
	})
	if err != nil {
		return nil, err
	}
	train, test := ds.Split(float64(cfg.TrainFlowsPerClass)/float64(total), cfg.Seed+1)
	micro := MicroSpace(cfg.Classes)
	macro := MacroSpace(cfg.Classes)

	byClass := map[string][]*flow.Flow{}
	for _, f := range train.Flows {
		byClass[f.Label] = append(byClass[f.Label], f)
	}

	// One GAN per class; labels are known by construction. Like the
	// joint baseline, each GAN models the complete record including the
	// identifier fields, which are dropped again before classification.
	var synthX [][]float32
	var synthMicro []int
	for ci, class := range cfg.Classes {
		var feats [][]float64
		labels := make([]int, 0, len(byClass[class]))
		for _, f := range byClass[class] {
			feats = append(feats, netflow.FromFlow(f).FullVector())
			labels = append(labels, 0)
		}
		gcfg := cfg.GAN
		gcfg.Seed = cfg.Seed + uint64(ci)*17
		model, err := gan.Train(feats, labels, 1, gcfg)
		if err != nil {
			return nil, fmt.Errorf("class %q: %w", class, err)
		}
		genFull, _ := model.Generate(cfg.SynthPerClass, cfg.Seed+uint64(ci)*31)
		for _, full := range genFull {
			row := netflow.ClassifierFeaturesFromFull(full)
			f32 := make([]float32, len(row))
			for j, v := range row {
				f32[j] = float32(v)
			}
			synthX = append(synthX, f32)
			synthMicro = append(synthMicro, ci)
		}
	}

	t2 := Table2Config{PacketsPerFlow: 8, RF: cfg.RF, Seed: cfg.Seed}
	cell, err := evalPairGAN(test.Flows, synthX, synthMicro, true, t2, micro, macro)
	if err != nil {
		return nil, err
	}
	return &PerClassGANResult{SynthRealMicro: cell.Micro, SynthRealMacro: cell.Macro}, nil
}
