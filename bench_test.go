// Package trafficdiff's root benchmarks cover what no other runner
// does: the design-choice ablations DESIGN.md calls out
// (BenchmarkAblation*, reporting compliance, accuracy or loss as custom
// metrics), Table 1's dataset generation, and the substrate and §4
// agenda costs (RF, one diffusion train step, netem condition
// transfer, stateful repair). Run them with
//
//	go test -run '^$' -bench=. -benchmem
//
// Every paper table and figure comes from `traceval` (EXPERIMENTS.md);
// served and offline generation speed from `bash bench/run.sh`.
package trafficdiff

import (
	"fmt"
	"testing"

	"trafficdiff/internal/core"
	"trafficdiff/internal/diffusion"
	"trafficdiff/internal/eval"
	"trafficdiff/internal/flow"
	"trafficdiff/internal/gan"
	"trafficdiff/internal/netem"
	"trafficdiff/internal/netfunc"
	"trafficdiff/internal/repair"
	"trafficdiff/internal/rf"
	"trafficdiff/internal/stats"
	"trafficdiff/internal/tensor"
	"trafficdiff/internal/workload"
)

// benchSynth returns a pipeline config sized so one full experiment
// iteration stays within a few seconds on a 2-core CPU box.
func benchSynth() core.Config {
	cfg := core.DefaultConfig()
	cfg.Hidden = 128
	cfg.TimeSteps = 80
	cfg.BaseSteps = 120
	cfg.FineTuneSteps = 200
	cfg.Batch = 12
	cfg.DDIMSteps = 10
	return cfg
}

func benchGAN() gan.Config {
	cfg := gan.DefaultConfig()
	cfg.Steps = 250
	return cfg
}

func benchRF() rf.Config {
	cfg := rf.DefaultConfig()
	cfg.Trees = 20
	return cfg
}

// ---------------------------------------------------------------------------
// Table 1 — dataset composition.
// ---------------------------------------------------------------------------

// BenchmarkTable1Dataset measures curated-dataset generation (Table 1
// class mix at Scale=0.02) and reports flows/sec plus the imbalance
// ratio the real data carries into Figure 1.
func BenchmarkTable1Dataset(b *testing.B) {
	var flows int
	var imbalance float64
	for i := 0; i < b.N; i++ {
		ds, err := workload.Generate(workload.Config{
			Seed: uint64(i + 1), Scale: 0.02, MaxPacketsPerFlow: 32,
		})
		if err != nil {
			b.Fatal(err)
		}
		flows = len(ds.Flows)
		imbalance = stats.ImbalanceRatio(ds.CountVector())
	}
	b.ReportMetric(float64(flows), "flows")
	b.ReportMetric(imbalance, "imbalance-ratio")
}

// ---------------------------------------------------------------------------
// Shared setup.
// ---------------------------------------------------------------------------

// trainedSynthesizer fine-tunes one small pipeline; each bench that
// needs one trains its own rather than sharing package state.
func trainedSynthesizer(b *testing.B, cfg core.Config, classes []string) *core.Synthesizer {
	b.Helper()
	ds, err := workload.Generate(workload.Config{
		Seed: 3, FlowsPerClass: 10, Only: classes, MaxPacketsPerFlow: cfg.Rows,
	})
	if err != nil {
		b.Fatal(err)
	}
	byClass := map[string][]*flow.Flow{}
	for _, f := range ds.Flows {
		byClass[f.Label] = append(byClass[f.Label], f)
	}
	s, err := core.New(cfg, classes)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.FineTune(byClass); err != nil {
		b.Fatal(err)
	}
	return s
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md): ControlNet, guidance scale, LoRA rank,
// resolution scaling, β schedule.
// ---------------------------------------------------------------------------

// BenchmarkAblationControlNet compares pre-projection protocol
// compliance with the control branch on vs off — the controllability
// claim isolated.
func BenchmarkAblationControlNet(b *testing.B) {
	for _, on := range []bool{true, false} {
		name := "on"
		if !on {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			cfg := benchSynth()
			cfg.UseControlNet = on
			var raw float64
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(50 + i)
				s := trainedSynthesizer(b, cfg, []string{"amazon"})
				res, err := s.Generate("amazon", 4)
				if err != nil {
					b.Fatal(err)
				}
				raw = res.RawCellCompliance
			}
			b.ReportMetric(raw, "raw-cell-compliance")
		})
	}
}

// BenchmarkAblationConstantSnap compares synthetic-data utility with
// and without the strong one-shot control (pinning class-invariant
// header bits): Synth/Real RF accuracy is the metric.
func BenchmarkAblationConstantSnap(b *testing.B) {
	for _, on := range []bool{true, false} {
		name := "on"
		if !on {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			cfg := eval.DefaultConfig()
			cfg.Classes = []string{"netflix", "amazon", "teams", "other"}
			cfg.Train, cfg.Test, cfg.Synth, cfg.Packets = 10, 4, 4, 8
			cfg.Model = benchSynth()
			cfg.Model.ConstantSnap = on
			cfg.GAN = benchGAN()
			cfg.RF = benchRF()
			var res *eval.Table2Result
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(40 + i)
				var err error
				res, err = eval.RunTable2(cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.SynthRealOurs.Micro, "synth/real-ours-micro")
			b.ReportMetric(res.RealSynthOurs.Micro, "real/synth-ours-micro")
		})
	}
}

// BenchmarkAblationGuidanceScale sweeps classifier-free guidance.
func BenchmarkAblationGuidanceScale(b *testing.B) {
	for _, w := range []float64{0, 1, 2, 4} {
		b.Run(fmt.Sprintf("w=%g", w), func(b *testing.B) {
			cfg := benchSynth()
			cfg.GuidanceScale = w
			var raw float64
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(60 + i)
				s := trainedSynthesizer(b, cfg, []string{"amazon"})
				res, err := s.Generate("amazon", 4)
				if err != nil {
					b.Fatal(err)
				}
				raw = res.RawCellCompliance
			}
			b.ReportMetric(raw, "raw-cell-compliance")
		})
	}
}

// BenchmarkAblationLoRARank sweeps the adapter rank used for class
// coverage, reporting fine-tune loss reached within a fixed budget.
func BenchmarkAblationLoRARank(b *testing.B) {
	for _, rank := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("r=%d", rank), func(b *testing.B) {
			cfg := benchSynth()
			cfg.LoRARank = rank
			var final float64
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(70 + i)
				ds, err := workload.Generate(workload.Config{
					Seed: 3, FlowsPerClass: 10, Only: []string{"amazon", "teams"}, MaxPacketsPerFlow: cfg.Rows,
				})
				if err != nil {
					b.Fatal(err)
				}
				byClass := map[string][]*flow.Flow{}
				for _, f := range ds.Flows {
					byClass[f.Label] = append(byClass[f.Label], f)
				}
				s, err := core.New(cfg, []string{"amazon", "teams"})
				if err != nil {
					b.Fatal(err)
				}
				rep, err := s.FineTune(byClass)
				if err != nil {
					b.Fatal(err)
				}
				final = rep.FineTuneLosses[len(rep.FineTuneLosses)-1]
			}
			b.ReportMetric(final, "final-finetune-loss")
		})
	}
}

// BenchmarkAblationResolutionScaling sweeps the column scaling factor
// (bit-aligned 8 vs coarser 16/32), reporting cell compliance — the
// fidelity cost of compression.
func BenchmarkAblationResolutionScaling(b *testing.B) {
	for _, dw := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("downW=%d", dw), func(b *testing.B) {
			cfg := benchSynth()
			cfg.DownW = dw
			var raw float64
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(80 + i)
				s := trainedSynthesizer(b, cfg, []string{"amazon"})
				res, err := s.Generate("amazon", 4)
				if err != nil {
					b.Fatal(err)
				}
				raw = res.RawCellCompliance
			}
			b.ReportMetric(raw, "raw-cell-compliance")
		})
	}
}

// BenchmarkAblationSchedule compares the linear and cosine β schedules
// at a fixed training budget.
func BenchmarkAblationSchedule(b *testing.B) {
	for _, kind := range []diffusion.ScheduleKind{diffusion.ScheduleLinear, diffusion.ScheduleCosine} {
		b.Run(kind.String(), func(b *testing.B) {
			cfg := benchSynth()
			cfg.Schedule = kind
			var raw float64
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(90 + i)
				s := trainedSynthesizer(b, cfg, []string{"amazon"})
				res, err := s.Generate("amazon", 4)
				if err != nil {
					b.Fatal(err)
				}
				raw = res.RawCellCompliance
			}
			b.ReportMetric(raw, "raw-cell-compliance")
		})
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks.
// ---------------------------------------------------------------------------

// BenchmarkRFTrainPredict measures the classifier on nprint-sized
// feature rows.
func BenchmarkRFTrainPredict(b *testing.B) {
	ds, err := workload.Generate(workload.Config{
		Seed: 9, FlowsPerClass: 20,
		Only: []string{"netflix", "teams", "other"}, MaxPacketsPerFlow: 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	x := eval.FeatureMatrix(ds.Flows, eval.GranularityNprint, 8)
	space := eval.MicroSpace([]string{"netflix", "teams", "other"})
	y, err := space.Labels(ds.Flows)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchRF()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forest, err := rf.Train(x, y, 3, cfg)
		if err != nil {
			b.Fatal(err)
		}
		forest.PredictBatch(x)
	}
}

// BenchmarkDiffusionTrainStep measures one optimizer step of the
// default denoiser.
func BenchmarkDiffusionTrainStep(b *testing.B) {
	r := stats.NewRNG(1)
	model := diffusion.NewMLPDenoiser(r, 16, 136, 128, 4)
	sched := diffusion.NewSchedule(diffusion.ScheduleCosine, 80)
	set := &diffusion.TrainSet{}
	for i := 0; i < 8; i++ {
		im := tensor.New(1, 16, 136).Randn(r, 1)
		set.Images = append(set.Images, im)
		set.Labels = append(set.Labels, i%4)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := diffusion.Train(model, sched, set, diffusion.TrainConfig{
			Steps: 1, Batch: 8, LR: 1e-3, Seed: uint64(i), Params: model.Params(),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetemConditionTransfer measures the §4 network-condition
// transfer: re-rendering a clean flow batch under a congested path.
func BenchmarkNetemConditionTransfer(b *testing.B) {
	g := workload.NewGenerator(7)
	g.MaxPackets = 40
	prof, _ := workload.ProfileByName("youtube")
	var flows []*flow.Flow
	for i := 0; i < 20; i++ {
		flows = append(flows, g.GenerateFlow(prof))
	}
	var lossFrac float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cond := netem.Congested
		cond.Seed = uint64(i)
		_, st, err := netem.ApplyAll(flows, cond)
		if err != nil {
			b.Fatal(err)
		}
		lossFrac = float64(st.Dropped) / float64(st.In)
	}
	b.ReportMetric(lossFrac, "loss-fraction")
}

// BenchmarkStatefulRepair measures the §4 "stricter constraints"
// post-processing: TCP conformance of generated flows before and
// after the stateful repair pass.
func BenchmarkStatefulRepair(b *testing.B) {
	cfg := benchSynth()
	s := trainedSynthesizer(b, cfg, []string{"amazon"})
	res, err := s.Generate("amazon", 6)
	if err != nil {
		b.Fatal(err)
	}
	before := netfunc.Conformance(res.Flows)
	var after float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fixed, err := repair.Flows(res.Flows, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		after = netfunc.Conformance(fixed)
	}
	b.ReportMetric(before, "conformance-before")
	b.ReportMetric(after, "conformance-after")
}
