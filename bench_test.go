// Package trafficdiff's root benchmark harness regenerates every table
// and figure in the paper's evaluation plus the ablations DESIGN.md
// calls out. Each experiment bench runs the full pipeline once per
// iteration with CPU-friendly sizes and reports the paper's numbers as
// custom benchmark metrics (accuracy, compliance, imbalance), so
//
//	go test -bench=. -benchmem
//
// prints the same rows the paper reports next to wall-clock cost.
// EXPERIMENTS.md records a paper-vs-measured comparison from a run of
// this harness. Generation speed is measured elsewhere: `traceval
// speed` for the §4 comparison and `bash bench/run.sh` for the served
// and offline paths.
package trafficdiff

import (
	"fmt"
	"strings"
	"testing"

	"trafficdiff/internal/core"
	"trafficdiff/internal/diffusion"
	"trafficdiff/internal/eval"
	"trafficdiff/internal/flow"
	"trafficdiff/internal/gan"
	"trafficdiff/internal/heuristic"
	"trafficdiff/internal/hmm"
	"trafficdiff/internal/netem"
	"trafficdiff/internal/netfunc"
	"trafficdiff/internal/nprint"
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
// Table 2 — RF accuracy across the six training/testing scenarios.
// ---------------------------------------------------------------------------

// BenchmarkTable2RFScenarios runs the full case study (fine-tune,
// generate, GAN baseline, 12 RF fits) once per iteration and reports
// each Table 2 cell as a metric.
func BenchmarkTable2RFScenarios(b *testing.B) {
	cfg := eval.DefaultTable2Config()
	cfg.Classes = []string{"netflix", "amazon", "teams", "zoom", "facebook", "other"}
	cfg.TrainFlowsPerClass = 12
	cfg.TestFlowsPerClass = 5
	cfg.SynthPerClass = 5
	cfg.PacketsPerFlow = 10
	cfg.Synth = benchSynth()
	cfg.GAN = benchGAN()
	cfg.RF = benchRF()

	var res *eval.Table2Result
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(7 + i)
		var err error
		res, err = eval.RunTable2(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.RealRealNprint.Micro, "real/real-nprint-micro")
	b.ReportMetric(res.RealRealNetFlow.Micro, "real/real-netflow-micro")
	b.ReportMetric(res.RealSynthOurs.Macro, "real/synth-ours-macro")
	b.ReportMetric(res.RealSynthOurs.Micro, "real/synth-ours-micro")
	b.ReportMetric(res.RealSynthGAN.Micro, "real/synth-gan-micro")
	b.ReportMetric(res.SynthRealOurs.Macro, "synth/real-ours-macro")
	b.ReportMetric(res.SynthRealOurs.Micro, "synth/real-ours-micro")
	b.ReportMetric(res.SynthRealGAN.Micro, "synth/real-gan-micro")
	b.Logf("\n%s", eval.Table2Report(res))
}

// ---------------------------------------------------------------------------
// Figure 1 — class coverage / balance.
// ---------------------------------------------------------------------------

// BenchmarkFigure1ClassCoverage runs the two-class (Figure 1b) study
// per iteration and reports the three imbalance ratios.
func BenchmarkFigure1ClassCoverage(b *testing.B) {
	cfg := eval.DefaultFig1Config()
	cfg.Classes = []string{"netflix", "youtube"}
	cfg.Scale = 0.004
	cfg.SynthTotal = 16
	cfg.Synth = benchSynth()
	cfg.GAN = benchGAN()

	var res *eval.Fig1Result
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(21 + i)
		var err error
		res, err = eval.RunFig1(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.ImbalanceReal, "imbalance-real")
	b.ReportMetric(res.ImbalanceGAN, "imbalance-gan")
	b.ReportMetric(res.ImbalanceOurs, "imbalance-ours")
	b.Logf("\n%s", eval.Fig1Report(res))
}

// ---------------------------------------------------------------------------
// Figure 2 — protocol compliance of the rendered synthetic flow.
// ---------------------------------------------------------------------------

// BenchmarkFigure2ProtocolCompliance trains on Amazon, generates and
// renders one flow, and reports compliance before/after projection.
func BenchmarkFigure2ProtocolCompliance(b *testing.B) {
	cfg := eval.DefaultFig2Config()
	cfg.TrainFlows = 12
	cfg.Synth = benchSynth()

	var res *eval.Fig2Result
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(33 + i)
		var err error
		res, err = eval.RunFig2(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.RawProtocolCompliance, "raw-compliance")
	b.ReportMetric(res.PostProtocolCompliance, "post-compliance")
	b.ReportMetric(res.SectionActive["tcp"], "tcp-rows")
	b.ReportMetric(res.SectionActive["udp"], "udp-rows")
	b.Logf("\n%s", eval.Fig2Report(res))
}

// ---------------------------------------------------------------------------
// §2.3 inline numbers.
// ---------------------------------------------------------------------------

// BenchmarkGranularityAblation reproduces the raw-bits vs NetFlow
// comparison on real data (paper: 0.94 vs 0.85 micro).
func BenchmarkGranularityAblation(b *testing.B) {
	cfg := eval.DefaultGranularityConfig()
	cfg.TrainFlowsPerClass = 16
	cfg.TestFlowsPerClass = 6
	cfg.PacketsPerFlow = 10
	cfg.MaxPacketsPerFlow = 24
	cfg.RF = benchRF()

	var res *eval.GranularityResult
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(5 + i)
		var err error
		res, err = eval.RunGranularity(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.NprintMicro, "nprint-micro")
	b.ReportMetric(res.NetFlowMicro, "netflow-micro")
	b.Logf("\n%s", eval.GranularityReport(res))
}

// BenchmarkPerClassGAN reproduces the supplemental experiment: one GAN
// per class still yields poor Synthetic/Real accuracy (paper: ~0.20).
func BenchmarkPerClassGAN(b *testing.B) {
	cfg := eval.DefaultPerClassGANConfig()
	cfg.Classes = []string{"netflix", "amazon", "teams", "zoom", "facebook", "other"}
	cfg.TrainFlowsPerClass = 12
	cfg.TestFlowsPerClass = 5
	cfg.SynthPerClass = 5
	cfg.GAN = benchGAN()
	cfg.RF = benchRF()
	cfg.MaxPacketsPerFlow = 24

	var res *eval.PerClassGANResult
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(13 + i)
		var err error
		res, err = eval.RunPerClassGAN(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.SynthRealMicro, "synth/real-micro")
	b.Logf("\n%s", eval.PerClassGANReport(res))
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
			cfg := eval.DefaultTable2Config()
			cfg.Classes = []string{"netflix", "amazon", "teams", "other"}
			cfg.TrainFlowsPerClass = 10
			cfg.TestFlowsPerClass = 4
			cfg.SynthPerClass = 4
			cfg.PacketsPerFlow = 8
			cfg.Synth = benchSynth()
			cfg.Synth.ConstantSnap = on
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
			Steps: 1, Batch: 8, LR: 1e-3, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Prior-work baselines (§2.1): HMM and heuristics-based generators.
// ---------------------------------------------------------------------------

// BenchmarkBaselineHMMFidelity trains the Redžović-style HMM on real
// flows and reports the Jensen-Shannon divergence between real and
// generated packet-size distributions (lower is better) — alongside
// the inherent limitation metric: the fraction of header features the
// approach covers at all (2 of 1088 bit-level features).
func BenchmarkBaselineHMMFidelity(b *testing.B) {
	g := workload.NewGenerator(5)
	g.MaxPackets = 40
	prof, _ := workload.ProfileByName("netflix")
	var seqs [][]hmm.Observation
	realHist := stats.NewHistogram(0, 1600, 16)
	for i := 0; i < 20; i++ {
		f := g.GenerateFlow(prof)
		seqs = append(seqs, hmm.FromFlow(f))
		for _, p := range f.Packets {
			realHist.Add(float64(p.Length()))
		}
	}
	var js float64
	for i := 0; i < b.N; i++ {
		cfg := hmm.DefaultConfig()
		cfg.Seed = uint64(i + 1)
		model, _, err := hmm.Train(seqs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		genHist := stats.NewHistogram(0, 1600, 16)
		sample := model.Sample(800, stats.NewRNG(uint64(i+9)))
		for _, o := range sample {
			genHist.Add(o.SizeBytes)
		}
		js = stats.JSDivergence(realHist.Proportions(), genHist.Proportions())
	}
	b.ReportMetric(js, "size-js-divergence")
	b.ReportMetric(2.0/float64(nprint.BitsPerPacket), "feature-coverage")
}

// BenchmarkBaselineHeuristicFidelity fits the Harpoon/Swing-style
// empirical generator and reports aggregate fidelity (size JS
// divergence) next to the stateful gap (TCP conformance violations per
// packet) that the diffusion pipeline is designed to close.
func BenchmarkBaselineHeuristicFidelity(b *testing.B) {
	g := workload.NewGenerator(6)
	g.MaxPackets = 30
	prof, _ := workload.ProfileByName("amazon")
	var examples []*flow.Flow
	realHist := stats.NewHistogram(0, 1600, 16)
	for i := 0; i < 20; i++ {
		f := g.GenerateFlow(prof)
		examples = append(examples, f)
		for _, p := range f.Packets {
			realHist.Add(float64(p.Length()))
		}
	}
	var js, violPerPkt float64
	for i := 0; i < b.N; i++ {
		fit, err := heuristic.Fit(examples)
		if err != nil {
			b.Fatal(err)
		}
		gen := fit.Generate(20, uint64(i+1))
		genHist := stats.NewHistogram(0, 1600, 16)
		checker := netfunc.NewTCPStateChecker()
		pkts := 0
		for _, f := range gen {
			for _, p := range f.Packets {
				genHist.Add(float64(p.Length()))
				checker.Process(p)
				pkts++
			}
		}
		js = stats.JSDivergence(realHist.Proportions(), genHist.Proportions())
		violPerPkt = float64(checker.Violations()) / float64(pkts)
	}
	b.ReportMetric(js, "size-js-divergence")
	b.ReportMetric(violPerPkt, "tcp-violations-per-pkt")
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

// BenchmarkFidelityStudy scores every generator family against
// held-out real traffic (size/gap KS distance, header coverage, TCP
// conformance) — the cross-baseline comparison behind §2.1.
func BenchmarkFidelityStudy(b *testing.B) {
	cfg := eval.DefaultFidelityConfig()
	cfg.TrainFlows = 10
	cfg.TestFlows = 10
	cfg.GenFlows = 6
	cfg.Synth = benchSynth()
	var res *eval.FidelityResult
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(29 + i)
		var err error
		res, err = eval.RunFidelity(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		// Metric units must be whitespace-free: keep the leading word.
		key := row.Name
		if i := strings.IndexAny(key, " ("); i > 0 {
			key = key[:i]
		}
		b.ReportMetric(row.SizeKS, key+"-size-ks")
	}
	b.Logf("\n%s", eval.FidelityReport(res))
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
	conform := func(flows []*flow.Flow) float64 {
		c := netfunc.NewTCPStateChecker()
		total := 0
		for _, f := range flows {
			for _, p := range f.Packets {
				if p.TCP != nil {
					total++
				}
				c.Process(p)
			}
		}
		if total == 0 {
			return 1
		}
		return float64(total-c.Violations()) / float64(total)
	}
	before := conform(res.Flows)
	var after float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fixed, err := repair.Flows(res.Flows, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		after = conform(fixed)
	}
	b.ReportMetric(before, "conformance-before")
	b.ReportMetric(after, "conformance-after")
}
