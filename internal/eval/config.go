package eval

import (
	"fmt"

	"trafficdiff/internal/core"
	"trafficdiff/internal/flow"
	"trafficdiff/internal/gan"
	"trafficdiff/internal/hmm"
	"trafficdiff/internal/netflow"
	"trafficdiff/internal/rf"
	"trafficdiff/internal/workload"
)

// Config is the one experiment configuration every runner takes. The
// paper's whole evaluation follows one protocol — split the real
// flows, fine-tune, generate per class, score with a random forest —
// and Config sizes each step of it once.
type Config struct {
	// Classes under study (default: all 11 micro applications). Figure
	// 2 and the fidelity study render exactly one; the rest compare at
	// least two.
	Classes []string
	// Train is the per-class fine-tuning subset size (paper §3.2 uses
	// 100 to bound LoRA overhead), Test the per-class held-out real set.
	Train, Test int
	// Synth is the number of flows generated per class.
	Synth int
	// Packets bounds the nprint feature rows the random forest sees
	// (paper: first 1024 packets; far lower here for CPU budgets).
	Packets int

	Model core.Config
	GAN   gan.Config
	RF    rf.Config
	HMM   hmm.Config
	// Seed is the base seed. Each experiment draws from its own fixed
	// offset of it, so one Seed drives every table and figure.
	Seed uint64
}

// The experiments' fixed offsets of Config.Seed (Table 2 and the
// sweep use it as is).
const (
	fig1Seed        = 21
	fig2Seed        = 33
	fidelitySeed    = 29
	perClassGANSeed = 13
)

// DefaultConfig returns CPU-budget-friendly settings with the paper's
// structure intact.
func DefaultConfig() Config {
	return Config{
		Classes: workload.ClassNames(),
		Train:   24, Test: 8, Synth: 8, Packets: 12,
		Model: core.DefaultConfig(),
		GAN:   gan.DefaultConfig(),
		RF:    rf.DefaultConfig(),
		HMM:   hmm.DefaultConfig(),
		Seed:  7,
	}
}

// validate rejects a configuration before any work: every size must be
// positive and every class known. single runners study exactly one
// class; the others compare two or more.
func (c Config) validate(single bool) error {
	if c.Train <= 0 || c.Test <= 0 || c.Synth <= 0 || c.Packets <= 0 {
		return fmt.Errorf("eval: non-positive sizes (train %d, test %d, synth %d, packets %d per class)",
			c.Train, c.Test, c.Synth, c.Packets)
	}
	if single && len(c.Classes) != 1 {
		return fmt.Errorf("eval: needs exactly one class, got %d", len(c.Classes))
	}
	if !single && len(c.Classes) < 2 {
		return fmt.Errorf("eval: needs >= 2 classes, got %d", len(c.Classes))
	}
	for _, name := range c.Classes {
		if _, ok := workload.ProfileByName(name); !ok {
			return fmt.Errorf("eval: unknown class %q", name)
		}
	}
	return nil
}

// generate draws the real dataset from seed: perClass flows of every
// class, or, when perClass is 0, Table 1's counts times scale.
func (c Config) generate(seed uint64, perClass int, scale float64) (*workload.Dataset, error) {
	return workload.Generate(workload.Config{
		Seed: seed, FlowsPerClass: perClass, Scale: scale, Only: c.Classes,
		MaxPacketsPerFlow: c.Model.Rows,
	})
}

// split draws Train+Test real flows per class from seed and splits
// them per class into the fine-tuning and held-out sets (seed+1).
func (c Config) split(seed uint64) (train, test *workload.Dataset, err error) {
	total := c.Train + c.Test
	ds, err := c.generate(seed, total, 0)
	if err != nil {
		return nil, nil, err
	}
	train, test = ds.Split(float64(c.Train)/float64(total), seed+1)
	return train, test, nil
}

// fineTune builds the synthesizer over Classes and fine-tunes one
// adapter per class on real.
func (c Config) fineTune(real *workload.Dataset) (*core.Synthesizer, *core.TrainReport, error) {
	synth, err := core.New(c.Model, c.Classes)
	if err != nil {
		return nil, nil, err
	}
	rep, err := synth.FineTune(real.ByClass())
	if err != nil {
		return nil, nil, fmt.Errorf("fine-tune: %w", err)
	}
	return synth, rep, nil
}

// trainGAN fits the NetShare-style GAN, seeded seed, on the flows'
// complete NetFlow records — including the high-entropy identifier
// fields NetShare must model (IPs, ports, start times) — with the
// label in space as one more generated feature.
func (c Config) trainGAN(flows []*flow.Flow, space *LabelSpace, seed uint64) (*gan.Model, error) {
	feats := make([][]float64, len(flows))
	for i, f := range flows {
		feats[i] = netflow.FromFlow(f).FullVector()
	}
	labels, err := space.Labels(flows)
	if err != nil {
		return nil, err
	}
	gcfg := c.GAN
	gcfg.Seed = seed
	return gan.Train(feats, labels, space.K(), gcfg)
}

// labelled is a classifier input: feature rows beside each row's micro
// class name.
type labelled struct {
	x      [][]float32
	labels []string
}

// features extracts the flows' classifier rows at granularity g.
func (c Config) features(flows []*flow.Flow, g FeatureGranularity) labelled {
	l := labelled{x: FeatureMatrix(flows, g, c.Packets), labels: make([]string, len(flows))}
	for i, f := range flows {
		l.labels[i] = f.Label
	}
	return l
}

// ganRecords draws n records from a GAN trained over space (seeded
// seed) and slices the classification features out of them, exactly
// as the evaluation does for real records (paper footnote 1); each
// row's label is the one the GAN generated.
func ganRecords(model *gan.Model, n int, seed uint64, space *LabelSpace) labelled {
	full, ids := model.Generate(n, seed)
	rows := make([][]float64, len(full))
	l := labelled{labels: make([]string, len(ids))}
	for i, r := range full {
		rows[i] = netflow.ClassifierFeaturesFromFull(r)
		l.labels[i] = space.Names[ids[i]]
	}
	l.x = NetFlowVectorsToFeatures(rows)
	return l
}

// rfCell scores one train/test pair at both label levels: per level,
// one forest seeded seed+K trained on train and tested on test.
func (c Config) rfCell(train, test labelled, seed uint64) (Cell, error) {
	var cell Cell
	for _, level := range []*LabelSpace{MacroSpace(c.Classes), MicroSpace(c.Classes)} {
		pred, truth, err := c.predict(train, test, level, seed+uint64(level.K()))
		if err != nil {
			return cell, err
		}
		acc := rf.Accuracy(pred, truth)
		if level.Macro {
			cell.Macro = acc
		} else {
			cell.Micro = acc
		}
	}
	return cell, nil
}

// predict trains one forest, seeded seed, on train's labels in level
// and returns its predictions for test beside test's true labels.
func (c Config) predict(train, test labelled, level *LabelSpace, seed uint64) (pred, truth []int, err error) {
	trainY, err := level.ids(train.labels)
	if err != nil {
		return nil, nil, err
	}
	if truth, err = level.ids(test.labels); err != nil {
		return nil, nil, err
	}
	rfCfg := c.RF
	rfCfg.Seed = seed
	forest, err := rf.Train(train.x, trainY, level.K(), rfCfg)
	if err != nil {
		return nil, nil, err
	}
	return forest.PredictBatch(test.x), truth, nil
}
