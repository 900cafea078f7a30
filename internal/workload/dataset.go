package workload

import (
	"fmt"
	"sort"

	"trafficdiff/internal/flow"
	"trafficdiff/internal/stats"
)

// Dataset is a labeled flow collection with train/test split support.
type Dataset struct {
	Flows []*flow.Flow
	// Classes lists the micro labels present, in catalog order.
	Classes []string
}

// Config controls dataset generation.
type Config struct {
	// Seed drives all randomness.
	Seed uint64
	// Scale multiplies each profile's Table1Count; e.g. Scale=0.01
	// yields a ~300-flow dataset with the paper's class imbalance. If
	// FlowsPerClass > 0 it wins and every class gets that many flows
	// (the balanced subset used for fine-tuning, paper §3.2).
	Scale         float64
	FlowsPerClass int
	// MaxPacketsPerFlow caps flow length (0 = profile-driven).
	MaxPacketsPerFlow int
	// Only restricts generation to the named classes (nil = all 11).
	Only []string
}

// Generate builds a labeled dataset per cfg.
func Generate(cfg Config) (*Dataset, error) {
	if cfg.Scale <= 0 && cfg.FlowsPerClass <= 0 {
		return nil, fmt.Errorf("workload: config needs Scale or FlowsPerClass")
	}
	gen := NewGenerator(cfg.Seed)
	gen.MaxPackets = cfg.MaxPacketsPerFlow

	keep := map[string]bool{}
	for _, name := range cfg.Only {
		if _, ok := ProfileByName(name); !ok {
			return nil, fmt.Errorf("workload: unknown class %q", name)
		}
		keep[name] = true
	}

	ds := &Dataset{}
	for _, p := range Catalog() {
		if len(keep) > 0 && !keep[p.Name] {
			continue
		}
		n := cfg.FlowsPerClass
		if n <= 0 {
			n = int(float64(float64(p.Table1Count)*cfg.Scale) + 0.5)
			if n < 1 {
				n = 1
			}
		}
		for i := 0; i < n; i++ {
			ds.Flows = append(ds.Flows, gen.GenerateFlow(p))
		}
		ds.Classes = append(ds.Classes, p.Name)
	}
	return ds, nil
}

// ClassCounts returns flow counts per micro label.
func (d *Dataset) ClassCounts() map[string]int {
	out := map[string]int{}
	for _, f := range d.Flows {
		out[f.Label]++
	}
	return out
}

// CountVector returns counts aligned with d.Classes.
func (d *Dataset) CountVector() []float64 {
	counts := d.ClassCounts()
	out := make([]float64, len(d.Classes))
	for i, c := range d.Classes {
		out[i] = float64(counts[c])
	}
	return out
}

// ByClass groups the flows by micro label, each group in dataset
// order: the per-class map fine-tuning takes.
func (d *Dataset) ByClass() map[string][]*flow.Flow {
	out := map[string][]*flow.Flow{}
	for _, f := range d.Flows {
		out[f.Label] = append(out[f.Label], f)
	}
	return out
}

// Split partitions the dataset into train/test with the given train
// fraction, stratified by class so every label appears on both sides
// (the paper uses a conventional 80-20 split).
func (d *Dataset) Split(trainFrac float64, seed uint64) (train, test *Dataset) {
	r := stats.NewRNG(seed)
	byClass := d.ByClass()
	labels := make([]string, 0, len(byClass))
	for l := range byClass {
		labels = append(labels, l)
	}
	sort.Strings(labels)

	train = &Dataset{Classes: d.Classes}
	test = &Dataset{Classes: d.Classes}
	for _, l := range labels {
		fs := byClass[l]
		r.Shuffle(len(fs), func(i, j int) { fs[i], fs[j] = fs[j], fs[i] })
		cut := int(float64(len(fs)) * trainFrac)
		if cut < 1 && len(fs) > 1 {
			cut = 1
		}
		if cut >= len(fs) && len(fs) > 1 {
			cut = len(fs) - 1
		}
		train.Flows = append(train.Flows, fs[:cut]...)
		test.Flows = append(test.Flows, fs[cut:]...)
	}
	return train, test
}

// MacroLabel maps a flow's micro label to its macro service, or "" if
// unknown.
func MacroLabel(micro string) string {
	m, ok := MacroOf(micro)
	if !ok {
		return ""
	}
	return string(m)
}
