package eval

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"trafficdiff/internal/core"
	"trafficdiff/internal/flow"
	"trafficdiff/internal/gan"
	"trafficdiff/internal/netflow"
	"trafficdiff/internal/workload"
)

// SpeedConfig parameterizes the §4 "generative speed" measurement:
// how fast each generator produces traffic, and what DDIM step
// reduction buys over full DDPM sampling.
type SpeedConfig struct {
	Classes    []string
	TrainFlows int
	// GenFlows is the number of flows timed per configuration.
	GenFlows int
	// DDIMSteps are the accelerated-sampler step counts to sweep; 0
	// means full DDPM.
	DDIMSteps []int
	Synth     core.Config
	GAN       gan.Config
	Seed      uint64
}

// DefaultSpeedConfig returns CPU-friendly settings.
func DefaultSpeedConfig() SpeedConfig {
	return SpeedConfig{
		Classes: []string{"amazon", "teams"}, TrainFlows: 10, GenFlows: 6,
		DDIMSteps: []int{0, 30, 10, 5},
		Synth:     core.DefaultConfig(), GAN: gan.DefaultConfig(), Seed: 17,
	}
}

// SpeedRow is one timed configuration.
type SpeedRow struct {
	Name       string
	Steps      int // model evaluations per flow batch (0 for GAN)
	FlowsPerS  float64
	PacketsPer float64 // packets per second (0 for GAN's record output)
	RecordsPer float64 // records per second (GAN only)
}

// SpeedResult is the sweep output.
type SpeedResult struct {
	Rows []SpeedRow
}

// RunSpeed measures generation throughput for the diffusion pipeline
// across sampler budgets and for the GAN baseline.
func RunSpeed(cfg SpeedConfig) (*SpeedResult, error) {
	if cfg.GenFlows <= 0 || cfg.TrainFlows <= 0 {
		return nil, fmt.Errorf("eval: non-positive speed sizes")
	}
	ds, err := workload.Generate(workload.Config{
		Seed: cfg.Seed, FlowsPerClass: cfg.TrainFlows, Only: cfg.Classes,
		MaxPacketsPerFlow: cfg.Synth.Rows,
	})
	if err != nil {
		return nil, err
	}
	byClass := map[string][]*flow.Flow{}
	for _, f := range ds.Flows {
		byClass[f.Label] = append(byClass[f.Label], f)
	}
	synthCfg := cfg.Synth
	synth, err := core.New(synthCfg, cfg.Classes)
	if err != nil {
		return nil, err
	}
	if _, err := synth.FineTune(byClass); err != nil {
		return nil, err
	}

	res := &SpeedResult{}
	for _, steps := range cfg.DDIMSteps {
		// Rebuild with the same weights is unnecessary: DDIMSteps only
		// affects sampling, so adjust through a fresh synthesizer
		// sharing the trained one's state via Save/Load.
		timed, err := withSamplerSteps(synth, synthCfg, steps)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		out, err := timed.Generate(cfg.Classes[0], cfg.GenFlows)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start).Seconds()
		pkts := 0
		for _, f := range out.Flows {
			pkts += len(f.Packets)
		}
		name := "ddpm (full)"
		evalSteps := synthCfg.TimeSteps
		if steps > 0 {
			name = fmt.Sprintf("ddim-%d", steps)
			evalSteps = steps
		}
		res.Rows = append(res.Rows, SpeedRow{
			Name: name, Steps: evalSteps,
			FlowsPerS:  float64(len(out.Flows)) / elapsed,
			PacketsPer: float64(pkts) / elapsed,
		})
	}

	// GAN baseline: one-shot record generation.
	micro := MicroSpace(cfg.Classes)
	var feats [][]float64
	var labels []int
	for _, f := range ds.Flows {
		feats = append(feats, netflow.FromFlow(f).FeatureVector())
		id, err := micro.LabelOf(f)
		if err != nil {
			return nil, err
		}
		labels = append(labels, id)
	}
	gcfg := cfg.GAN
	gcfg.Seed = cfg.Seed + 1
	model, err := gan.Train(feats, labels, micro.K(), gcfg)
	if err != nil {
		return nil, err
	}
	const ganBatch = 2000
	start := time.Now()
	genF, _ := model.Generate(ganBatch, cfg.Seed+2)
	elapsed := time.Since(start).Seconds()
	res.Rows = append(res.Rows, SpeedRow{
		Name: "gan (netflow records)", Steps: 0,
		RecordsPer: float64(len(genF)) / elapsed,
	})
	return res, nil
}

// withSamplerSteps clones a trained synthesizer with a different
// DDIMSteps setting through the Save/Load round trip.
func withSamplerSteps(s *core.Synthesizer, cfg core.Config, steps int) (*core.Synthesizer, error) {
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		return nil, err
	}
	loaded, err := core.Load(&buf)
	if err != nil {
		return nil, err
	}
	loaded.SetDDIMSteps(steps)
	return loaded, nil
}

// SpeedReport renders the sweep like the paper's discussion: flows/s
// falls linearly with sampler steps; the GAN's one-shot generation is
// orders of magnitude faster but emits only aggregate records.
func SpeedReport(r *SpeedResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %8s %12s %12s %12s\n", "Generator", "steps", "flows/s", "packets/s", "records/s")
	fmt.Fprintln(&b, strings.Repeat("-", 70))
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-22s %8d %12.2f %12.1f %12.1f\n",
			row.Name, row.Steps, row.FlowsPerS, row.PacketsPer, row.RecordsPer)
	}
	return b.String()
}
