// Command traceval regenerates the paper's tables and figures; it is
// the only runner of every paper number.
//
// Usage:
//
//	traceval table1        # Table 1: dataset composition
//	traceval table2        # Table 2: RF accuracy, 6 scenarios; Real/Real rows = §2.3 granularity
//	traceval fig1a         # Figure 1(a): 11-class distribution
//	traceval fig1b         # Figure 1(b): 2-class distribution
//	traceval fig2          # Figure 2: synthetic Amazon flow image
//	traceval perclass-gan  # §2.3: one GAN per class
//	traceval fidelity      # cross-generator fidelity vs held-out real traffic
//	traceval frontier      # §4 speed: DDPM, few-step DDIM and GAN, fidelity-gated
//	traceval all           # everything above
//
// Flags scale the experiments: -train/-test/-synth set per-class flow
// counts, -fast shrinks the models for a quick smoke run. Figure 2's
// PNG lands in -out (default fig2_amazon.png). frontier ignores the
// scale flags: it runs the fixed CPU-budget sweep CI gates on and exits
// non-zero when a point loses fidelity.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"trafficdiff/internal/core"
	"trafficdiff/internal/eval"
	"trafficdiff/internal/workload"
)

// frontierFidelityTol is the frontier gate's tolerance in absolute
// micro accuracy: every DDIM step budget must hold Synthetic/Real RF
// accuracy within this much of the 64-step reference. The sweep's
// datasets are small (CI budget), so per-point accuracy moves in
// 1/test-set-size quanta; the tolerance absorbs that sampling noise
// while still catching a sampler bug that collapses class structure
// (which drops accuracy toward chance, far past any noise).
const frontierFidelityTol = 0.20

func main() {
	log.SetFlags(0)
	log.SetPrefix("traceval: ")
	var (
		train = flag.Int("train", 24, "real training flows per class")
		test  = flag.Int("test", 8, "real test flows per class")
		synth = flag.Int("synth", 8, "synthetic flows per class")
		fast  = flag.Bool("fast", false, "shrink models for a quick run")
		out   = flag.String("out", "fig2_amazon.png", "figure 2 PNG path")
		seed  = flag.Uint64("seed", 7, "random seed")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		fmt.Fprintln(os.Stderr, "experiments: table1 table2 fig1a fig1b fig2 perclass-gan fidelity frontier all")
		os.Exit(2)
	}

	synthCfg := core.DefaultConfig()
	if *fast {
		synthCfg.Hidden = 64
		synthCfg.TimeSteps = 40
		synthCfg.BaseSteps = 50
		synthCfg.FineTuneSteps = 80
		synthCfg.DDIMSteps = 8
	}
	synthCfg.Seed = *seed

	run := func(name string) error {
		switch name {
		case "table1":
			ds, err := workload.Generate(workload.Config{Seed: *seed, Scale: 0.02, MaxPacketsPerFlow: 32})
			if err != nil {
				return err
			}
			fmt.Println("== Table 1: service recognition dataset (Scale=0.02 of paper counts) ==")
			fmt.Print(eval.Table1Report(ds))
		case "table2":
			cfg := eval.DefaultTable2Config()
			cfg.TrainFlowsPerClass = *train
			cfg.TestFlowsPerClass = *test
			cfg.SynthPerClass = *synth
			cfg.Synth = synthCfg
			cfg.Seed = *seed
			log.Printf("running table2 (train=%d/class, test=%d/class, synth=%d/class)...", *train, *test, *synth)
			res, err := eval.RunTable2(cfg)
			if err != nil {
				return err
			}
			fmt.Println("== Table 2: RF accuracy across training/testing scenarios ==")
			fmt.Print(eval.Table2Report(res))
		case "fig1a", "fig1b":
			cfg := eval.DefaultFig1Config()
			if name == "fig1b" {
				cfg.Classes = []string{"netflix", "youtube"}
				cfg.SynthTotal = 4 * *synth
			} else {
				cfg.SynthTotal = 11 * *synth
			}
			cfg.Synth = synthCfg
			cfg.Seed = *seed + 21
			log.Printf("running %s...", name)
			res, err := eval.RunFig1(cfg)
			if err != nil {
				return err
			}
			fmt.Printf("== Figure 1 (%s): class distribution, real vs GAN vs ours ==\n", name)
			fmt.Print(eval.Fig1Report(res))
		case "fig2":
			cfg := eval.DefaultFig2Config()
			cfg.TrainFlows = *train
			cfg.Synth = synthCfg
			cfg.Seed = *seed + 33
			log.Printf("running fig2...")
			res, err := eval.RunFig2(cfg)
			if err != nil {
				return err
			}
			if err := os.WriteFile(*out, res.PNG, 0o644); err != nil {
				return err
			}
			fmt.Println("== Figure 2: color processed synthetic data for Amazon ==")
			fmt.Print(eval.Fig2Report(res))
			fmt.Printf("image written to %s\n", *out)
		case "fidelity":
			cfg := eval.DefaultFidelityConfig()
			cfg.TrainFlows = *train
			cfg.TestFlows = *test
			cfg.GenFlows = *synth
			cfg.Synth = synthCfg
			cfg.Seed = *seed + 29
			log.Printf("running fidelity study...")
			res, err := eval.RunFidelity(cfg)
			if err != nil {
				return err
			}
			fmt.Println("== fidelity: all generator families vs held-out real traffic ==")
			fmt.Print(eval.FidelityReport(res))
		case "frontier":
			log.Printf("running fidelity-vs-speed frontier...")
			rep, err := eval.RunFrontier(eval.DefaultFrontierConfig())
			if err != nil {
				return err
			}
			fmt.Println("== §4: generative speed, DDPM to few-step DDIM and the GAN (fidelity vs speed) ==")
			fmt.Print(eval.FrontierReportString(rep))
			if err := eval.GateFrontier(rep, frontierFidelityTol); err != nil {
				return err
			}
		case "perclass-gan":
			cfg := eval.DefaultPerClassGANConfig()
			cfg.TrainFlowsPerClass = *train
			cfg.TestFlowsPerClass = *test
			cfg.SynthPerClass = *synth
			cfg.Seed = *seed + 13
			res, err := eval.RunPerClassGAN(cfg)
			if err != nil {
				return err
			}
			fmt.Println("== §2.3: per-class GAN supplemental experiment ==")
			fmt.Print(eval.PerClassGANReport(res))
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		fmt.Println()
		return nil
	}

	names := []string{flag.Arg(0)}
	if flag.Arg(0) == "all" {
		names = []string{"table1", "table2", "fig1a", "fig1b", "fig2", "perclass-gan", "fidelity", "frontier"}
	}
	for _, n := range names {
		if err := run(n); err != nil {
			log.Fatalf("%s: %v", n, err)
		}
	}
}
