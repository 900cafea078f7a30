package eval

import (
	"fmt"

	"trafficdiff/internal/core"
	"trafficdiff/internal/flow"
	"trafficdiff/internal/gan"
	"trafficdiff/internal/netflow"
	"trafficdiff/internal/rf"
	"trafficdiff/internal/workload"
)

// Table2Config parameterizes the Table 2 reproduction (RF accuracy
// across training/testing scenarios).
type Table2Config struct {
	// Classes under study (default: all 11 micro applications).
	Classes []string
	// TrainFlowsPerClass is the per-class fine-tuning subset size
	// (paper §3.2 uses 100 to bound LoRA overhead).
	TrainFlowsPerClass int
	// TestFlowsPerClass sizes the held-out real test set.
	TestFlowsPerClass int
	// SynthPerClass sizes the generated dataset (used as test set in
	// Real/Synthetic and as training set in Synthetic/Real).
	SynthPerClass int
	// PacketsPerFlow bounds the nprint feature rows (paper: first 1024
	// packets; experiments default far lower for CPU budgets).
	PacketsPerFlow int

	Synth core.Config
	GAN   gan.Config
	RF    rf.Config
	Seed  uint64
}

// DefaultTable2Config returns CPU-budget-friendly settings with the
// paper's structure intact.
func DefaultTable2Config() Table2Config {
	synth := core.DefaultConfig()
	return Table2Config{
		Classes:            workload.ClassNames(),
		TrainFlowsPerClass: 24,
		TestFlowsPerClass:  8,
		SynthPerClass:      8,
		PacketsPerFlow:     12,
		Synth:              synth,
		GAN:                gan.DefaultConfig(),
		RF:                 rf.DefaultConfig(),
		Seed:               7,
	}
}

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

// RunTable2 executes the full case study.
func RunTable2(cfg Table2Config) (*Table2Result, error) {
	if len(cfg.Classes) < 2 {
		return nil, fmt.Errorf("eval: table2 needs >= 2 classes")
	}
	total := cfg.TrainFlowsPerClass + cfg.TestFlowsPerClass
	if cfg.TrainFlowsPerClass <= 0 || cfg.TestFlowsPerClass <= 0 || cfg.SynthPerClass <= 0 {
		return nil, fmt.Errorf("eval: non-positive dataset sizes")
	}
	ds, err := workload.Generate(workload.Config{
		Seed: cfg.Seed, FlowsPerClass: total, Only: cfg.Classes,
		MaxPacketsPerFlow: cfg.Synth.Rows,
	})
	if err != nil {
		return nil, err
	}
	trainFrac := float64(cfg.TrainFlowsPerClass) / float64(total)
	train, test := ds.Split(trainFrac, cfg.Seed+1)

	micro := MicroSpace(cfg.Classes)
	macro := MacroSpace(cfg.Classes)

	res := &Table2Result{
		Classes:    cfg.Classes,
		TrainFlows: len(train.Flows),
		TestFlows:  len(test.Flows),
	}

	// --- Real/Real at both granularities. ---
	res.RealRealNprint, err = evalPair(train.Flows, test.Flows, GranularityNprint, cfg, micro, macro)
	if err != nil {
		return nil, fmt.Errorf("real/real nprint: %w", err)
	}
	res.RealRealNetFlow, err = evalPair(train.Flows, test.Flows, GranularityNetFlow, cfg, micro, macro)
	if err != nil {
		return nil, fmt.Errorf("real/real netflow: %w", err)
	}

	// --- Our diffusion pipeline. ---
	synth, err := core.New(cfg.Synth, cfg.Classes)
	if err != nil {
		return nil, err
	}
	byClass := map[string][]*flow.Flow{}
	for _, f := range train.Flows {
		byClass[f.Label] = append(byClass[f.Label], f)
	}
	if _, err := synth.FineTune(byClass); err != nil {
		return nil, fmt.Errorf("fine-tune: %w", err)
	}
	synthFlows, err := synth.GenerateBalanced(cfg.SynthPerClass)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	res.SynthFlows = len(synthFlows)

	res.RealSynthOurs, err = evalPair(train.Flows, synthFlows, GranularityNprint, cfg, micro, macro)
	if err != nil {
		return nil, fmt.Errorf("real/synth ours: %w", err)
	}
	res.SynthRealOurs, err = evalPair(synthFlows, test.Flows, GranularityNprint, cfg, micro, macro)
	if err != nil {
		return nil, fmt.Errorf("synth/real ours: %w", err)
	}
	res.SynthRealOursRecall, err = perClassRecall(synthFlows, test.Flows, cfg, micro)
	if err != nil {
		return nil, fmt.Errorf("synth/real ours recall: %w", err)
	}

	// --- GAN baseline on NetFlow features. ---
	ganSynthFlows, ganLabels, err := trainGANAndGenerate(train.Flows, cfg, micro)
	if err != nil {
		return nil, fmt.Errorf("gan: %w", err)
	}
	res.RealSynthGAN, err = evalPairGAN(train.Flows, ganSynthFlows, ganLabels, false, cfg, micro, macro)
	if err != nil {
		return nil, fmt.Errorf("real/synth gan: %w", err)
	}
	res.SynthRealGAN, err = evalPairGAN(test.Flows, ganSynthFlows, ganLabels, true, cfg, micro, macro)
	if err != nil {
		return nil, fmt.Errorf("synth/real gan: %w", err)
	}
	return res, nil
}

// evalPair trains an RF on trainFlows and tests on testFlows at the
// given granularity, for both label levels.
func evalPair(trainFlows, testFlows []*flow.Flow, g FeatureGranularity, cfg Table2Config, micro, macro *LabelSpace) (Cell, error) {
	var cell Cell
	trainX := FeatureMatrix(trainFlows, g, cfg.PacketsPerFlow)
	testX := FeatureMatrix(testFlows, g, cfg.PacketsPerFlow)
	for _, level := range []*LabelSpace{macro, micro} {
		trainY, err := level.Labels(trainFlows)
		if err != nil {
			return cell, err
		}
		testY, err := level.Labels(testFlows)
		if err != nil {
			return cell, err
		}
		rfCfg := cfg.RF
		rfCfg.Seed = cfg.Seed + uint64(level.K())
		forest, err := rf.Train(trainX, trainY, level.K(), rfCfg)
		if err != nil {
			return cell, err
		}
		acc := rf.Accuracy(forest.PredictBatch(testX), testY)
		if level.Macro {
			cell.Macro = acc
		} else {
			cell.Micro = acc
		}
	}
	return cell, nil
}

// trainGAN fits the NetShare-style GAN on the real training flows'
// complete NetFlow records — including the high-entropy identifier
// fields NetShare must model (IPs, ports, start times) — with the
// micro-level label as one more generated feature.
func trainGAN(trainFlows []*flow.Flow, cfg gan.Config, micro *LabelSpace) (*gan.Model, error) {
	var feats [][]float64
	var labels []int
	for _, f := range trainFlows {
		feats = append(feats, netflow.FromFlow(f).FullVector())
		id, err := micro.LabelOf(f)
		if err != nil {
			return nil, err
		}
		labels = append(labels, id)
	}
	return gan.Train(feats, labels, micro.K(), cfg)
}

// trainGANAndGenerate trains the GAN baseline and draws a synthetic
// dataset. Classification features are then sliced out of the
// generated rows, exactly as the evaluation does for real records
// (paper footnote 1). Returned labels are micro-level ids (the GAN
// emits them as a feature).
func trainGANAndGenerate(trainFlows []*flow.Flow, cfg Table2Config, micro *LabelSpace) ([][]float32, []int, error) {
	gcfg := cfg.GAN
	gcfg.Seed = cfg.Seed + 99
	model, err := trainGAN(trainFlows, gcfg, micro)
	if err != nil {
		return nil, nil, err
	}
	n := cfg.SynthPerClass * micro.K()
	genFull, genL := model.Generate(n, cfg.Seed+100)
	genF := make([][]float64, len(genFull))
	for i, row := range genFull {
		genF[i] = netflow.ClassifierFeaturesFromFull(row)
	}
	return NetFlowVectorsToFeatures(genF), genL, nil
}

// perClassRecall trains a micro-level RF on trainFlows and returns
// the per-class recall on testFlows.
func perClassRecall(trainFlows, testFlows []*flow.Flow, cfg Table2Config, micro *LabelSpace) ([]float64, error) {
	trainX := FeatureMatrix(trainFlows, GranularityNprint, cfg.PacketsPerFlow)
	testX := FeatureMatrix(testFlows, GranularityNprint, cfg.PacketsPerFlow)
	trainY, err := micro.Labels(trainFlows)
	if err != nil {
		return nil, err
	}
	testY, err := micro.Labels(testFlows)
	if err != nil {
		return nil, err
	}
	rfCfg := cfg.RF
	rfCfg.Seed = cfg.Seed + 61
	forest, err := rf.Train(trainX, trainY, micro.K(), rfCfg)
	if err != nil {
		return nil, err
	}
	cm, err := rf.NewConfusionMatrix(forest.PredictBatch(testX), testY, micro.K())
	if err != nil {
		return nil, err
	}
	return cm.PerClassRecall(), nil
}

// evalPairGAN evaluates GAN scenarios. synthAsTrain selects
// Synthetic/Real (train on GAN rows, test on real) vs Real/Synthetic.
func evalPairGAN(realFlows []*flow.Flow, synthX [][]float32, synthMicro []int, synthAsTrain bool, cfg Table2Config, micro, macro *LabelSpace) (Cell, error) {
	var cell Cell
	realX := FeatureMatrix(realFlows, GranularityNetFlow, cfg.PacketsPerFlow)
	for _, level := range []*LabelSpace{macro, micro} {
		realY, err := level.Labels(realFlows)
		if err != nil {
			return cell, err
		}
		synthY := make([]int, len(synthMicro))
		for i, m := range synthMicro {
			if level.Macro {
				id, ok := level.index[workload.MacroLabel(micro.Names[m])]
				if !ok {
					return cell, fmt.Errorf("eval: macro label missing for %q", micro.Names[m])
				}
				synthY[i] = id
			} else {
				synthY[i] = m
			}
		}
		trainX, trainY := realX, realY
		testX, testY := synthX, synthY
		if synthAsTrain {
			trainX, trainY, testX, testY = synthX, synthY, realX, realY
		}
		rfCfg := cfg.RF
		rfCfg.Seed = cfg.Seed + 31 + uint64(level.K())
		forest, err := rf.Train(trainX, trainY, level.K(), rfCfg)
		if err != nil {
			return cell, err
		}
		acc := rf.Accuracy(forest.PredictBatch(testX), testY)
		if level.Macro {
			cell.Macro = acc
		} else {
			cell.Micro = acc
		}
	}
	return cell, nil
}
