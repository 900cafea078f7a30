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
//	traceval ablate        # design choices: ControlNet, ConstantSnap, guidance, LoRA rank, DownW, β schedule
//
// Several ids run in order (traceval table2 fig2). Every experiment
// runs from one eval.Config, filled from the flags: -train/-test/-synth
// set the per-class real training, real test and synthetic flow counts,
// -seed the one seed each experiment offsets, and -fast shrinks the
// diffusion model for a quick smoke run. Figure 2's PNG lands in -out
// (default fig2_amazon.png). ablate sweeps every knob of eval.RunSweep
// but steps on that Config, in one call that fine-tunes each distinct
// training configuration once and trains the GAN once. frontier ignores
// the flags: it sweeps steps, one fine-tune, on the fixed CPU-budget
// Config CI gates on and exits non-zero when a point loses fidelity.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

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

// paperScale sizes Table 1's and Figure 1's imbalanced datasets as a
// fraction of the paper's per-class counts.
const paperScale = 0.02

func main() {
	log.SetFlags(0)
	log.SetPrefix("traceval: ")
	def := eval.DefaultConfig()
	var (
		train = flag.Int("train", def.Train, "real training flows per class")
		test  = flag.Int("test", def.Test, "real test flows per class")
		synth = flag.Int("synth", def.Synth, "synthetic flows per class")
		fast  = flag.Bool("fast", false, "shrink models for a quick run")
		out   = flag.String("out", "fig2_amazon.png", "figure 2 PNG path")
		seed  = flag.Uint64("seed", def.Seed, "random seed")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		fmt.Fprintln(os.Stderr, "experiments: table1 table2 fig1a fig1b fig2 perclass-gan fidelity frontier all ablate")
		os.Exit(2)
	}

	cfg := def
	cfg.Train, cfg.Test, cfg.Synth, cfg.Seed = *train, *test, *synth, *seed
	if *fast {
		cfg.Model.Hidden = 64
		cfg.Model.TimeSteps = 40
		cfg.Model.BaseSteps = 50
		cfg.Model.FineTuneSteps = 80
		cfg.Model.DDIMSteps = 8
	}
	cfg.Model.Seed = *seed

	run := func(name string) error {
		c := cfg
		switch name {
		case "table1":
			ds, err := workload.Generate(workload.Config{Seed: c.Seed, Scale: paperScale, MaxPacketsPerFlow: c.Model.Rows})
			if err != nil {
				return err
			}
			fmt.Printf("== Table 1: service recognition dataset (Scale=%g of paper counts) ==\n", paperScale)
			fmt.Print(eval.Table1Report(ds))
		case "table2":
			log.Printf("running table2 (train=%d/class, test=%d/class, synth=%d/class)...", c.Train, c.Test, c.Synth)
			res, err := eval.RunTable2(c)
			if err != nil {
				return err
			}
			fmt.Println("== Table 2: RF accuracy across training/testing scenarios ==")
			fmt.Print(eval.Table2Report(res))
		case "fig1a", "fig1b":
			if name == "fig1b" {
				// Two classes: draw twice as many flows per class.
				c.Classes = []string{"netflix", "youtube"}
				c.Synth *= 2
			}
			log.Printf("running %s...", name)
			res, err := eval.RunFig1(c, paperScale)
			if err != nil {
				return err
			}
			fmt.Printf("== Figure 1 (%s): class distribution, real vs GAN vs ours ==\n", name)
			fmt.Print(eval.Fig1Report(res))
		case "fig2":
			c.Classes = []string{"amazon"}
			log.Printf("running fig2...")
			res, err := eval.RunFig2(c)
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
			c.Classes = []string{"amazon"}
			log.Printf("running fidelity study...")
			res, err := eval.RunFidelity(c)
			if err != nil {
				return err
			}
			fmt.Println("== fidelity: all generator families vs held-out real traffic ==")
			fmt.Print(eval.FidelityReport(res))
		case "frontier":
			log.Printf("running fidelity-vs-speed frontier...")
			reps, err := eval.RunSweep(frontierConfig(), "steps")
			if err != nil {
				return err
			}
			fmt.Println("== §4: generative speed, DDPM to few-step DDIM and the GAN (fidelity vs speed) ==")
			fmt.Print(eval.SweepReportString(reps[0]))
			fmt.Printf("gan (one-shot netflow records): %.0f records/s\n", reps[0].GANRecordsPerS)
			if err := eval.GateFrontier(reps[0], frontierFidelityTol); err != nil {
				return err
			}
		case "ablate":
			log.Printf("running ablations...")
			reps, err := eval.RunSweep(c, "controlnet", "constantsnap", "guidance", "lorarank", "downw", "schedule")
			if err != nil {
				return err
			}
			for _, rep := range reps {
				fmt.Printf("== ablation: %s, Synthetic/Real RF and pre-projection compliance per value ==\n%s\n",
					rep.Knob, eval.SweepReportString(rep))
			}
			fmt.Printf("gan (one-shot netflow records): %.0f records/s\n", reps[0].GANRecordsPerS)
		case "perclass-gan":
			res, err := eval.RunPerClassGAN(c)
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

	var names []string
	for _, n := range flag.Args() {
		if n == "all" {
			names = append(names, "table1", "table2", "fig1a", "fig1b", "fig2", "perclass-gan", "fidelity", "frontier")
		} else {
			names = append(names, n)
		}
	}
	for _, n := range names {
		if err := run(n); err != nil {
			log.Fatalf("%s: %v", n, err)
		}
	}
}

// frontierConfig is the fixed CPU-budget sweep CI gates on, whatever
// the scale flags say: a small spatial model, but a schedule long
// enough that the 64-step reference budget is meaningful.
func frontierConfig() eval.Config {
	c := eval.DefaultConfig()
	c.Classes = []string{"amazon", "teams"}
	c.Train, c.Test, c.Synth = 12, 6, 6
	c.Model.Rows = 16
	c.Model.DownH, c.Model.DownW = 2, 16
	c.Model.Hidden = 48
	c.Model.TimeSteps = 80
	c.Model.BaseSteps = 25
	c.Model.FineTuneSteps = 35
	c.Model.Batch = 8
	c.Seed = 29
	return c
}
