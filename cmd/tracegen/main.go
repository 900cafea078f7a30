// Command tracegen trains the text-to-traffic pipeline on a labeled
// workload dataset and writes synthetic, replayable pcap files — one
// per class — plus the real fine-tuning captures for comparison.
//
// Usage:
//
//	tracegen -out ./synthetic                      # all 11 classes
//	tracegen -classes amazon,teams -per-class 20   # subset, 20 flows each
//	tracegen -generator gan -out ./gan-netflow     # GAN baseline (CSV)
//
// The diffusion generator emits pcaps (fine-grained raw packets); the
// GAN baseline emits NetFlow-like CSV records, mirroring the
// granularity gap the paper measures.
//
// # Train → save → serve
//
// tracegen is the checkpoint producer for the traced service: fine-tune
// once, save the pipeline, then serve concurrent generation requests
// from the frozen checkpoint without retraining:
//
//	tracegen -classes amazon,teams -save model.ckpt   # train + checkpoint
//	traced -model model.ckpt -addr :8080              # load + serve
//	curl -d '{"class":"amazon","count":4,"seed":7}' localhost:8080/v1/generate
//
// -save writes the checkpoint with Synthesizer.Save; -load-model
// resumes from one instead of training, so the same checkpoint replays
// identically in batch and serving mode. -load-model takes none of the
// training flags (-resume, -checkpoint, -checkpoint-every), and the GAN
// generator takes none of -save, -load-model, -resume,
// -checkpoint-every or -stateful-repair: a combination that would be
// silently ignored is refused before any work.
//
// # Crash-safe training
//
// -checkpoint-every K writes an atomic mid-run training checkpoint
// (optimizer moments, RNG position, loss curve) every K
// steps, and -resume continues a killed run from it — bit-identically
// to a run that was never interrupted:
//
//	tracegen -classes amazon,teams -checkpoint-every 25 -out synthetic
//	# ...killed mid-train...
//	tracegen -classes amazon,teams -checkpoint-every 25 -out synthetic \
//	    -resume synthetic/train.ckpt
//
// The resume run must use the same data and model flags; a mismatched
// config is refused. -progress-every N logs loss/grad-norm/steps per
// second during training.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"trafficdiff/internal/core"
	"trafficdiff/internal/eval"
	"trafficdiff/internal/flow"
	"trafficdiff/internal/gan"
	"trafficdiff/internal/netflow"
	"trafficdiff/internal/pcap"
	"trafficdiff/internal/repair"
	"trafficdiff/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")
	var (
		outDir    = flag.String("out", "synthetic", "output directory")
		classesIn = flag.String("classes", "", "comma-separated classes (default: all 11)")
		perClass  = flag.Int("per-class", 8, "synthetic flows per class")
		trainN    = flag.Int("train", 16, "real fine-tuning flows per class")
		generator = flag.String("generator", "diffusion", "diffusion | gan")
		seed      = flag.Uint64("seed", 1, "random seed")
		rows      = flag.Int("rows", 32, "packets per flow image")
		steps     = flag.Int("steps", 300, "fine-tune steps")
		keepReal  = flag.Bool("write-real", true, "also write the real training flows as pcaps")
		saveModel = flag.String("save", "", "write the fine-tuned checkpoint to this path (for traced -model)")
		loadModel = flag.String("load-model", "", "load a saved synthesizer instead of training")
		stateful  = flag.Bool("stateful-repair", false, "rewrite generated TCP flows into valid conversations")
		ckptPath  = flag.String("checkpoint", "", "mid-run training checkpoint path (default <out>/train.ckpt when checkpointing is on)")
		ckptEvery = flag.Int("checkpoint-every", 0, "write a crash-safe training checkpoint every K steps (0 disables)")
		resume    = flag.String("resume", "", "resume fine-tuning from a mid-run checkpoint (requires the same data flags as the original run)")
		progressN = flag.Int("progress-every", 25, "log training progress every N steps (0 disables)")
	)
	flag.Parse()

	classes := workload.ClassNames()
	if *classesIn != "" {
		classes = strings.Split(*classesIn, ",")
	}
	opts := runOpts{
		outDir: *outDir, classes: classes, perClass: *perClass, trainN: *trainN,
		generator: *generator, seed: *seed, rows: *rows, steps: *steps,
		keepReal: *keepReal, saveModel: *saveModel, loadModel: *loadModel, stateful: *stateful,
		ckptPath: *ckptPath, ckptEvery: *ckptEvery, resume: *resume, progressN: *progressN,
	}
	if err := run(opts); err != nil {
		log.Fatal(err)
	}
}

type runOpts struct {
	outDir    string
	classes   []string
	perClass  int
	trainN    int
	generator string
	seed      uint64
	rows      int
	steps     int
	keepReal  bool
	saveModel string
	loadModel string
	stateful  bool
	ckptPath  string
	ckptEvery int
	resume    string
	progressN int
}

// check refuses flag combinations run would otherwise silently ignore,
// naming the first offending flag.
func (o runOpts) check() error {
	type setFlag struct {
		name string
		set  bool
	}
	var unused []setFlag
	var why string
	switch o.generator {
	case "diffusion":
		if o.loadModel == "" {
			return nil
		}
		why = "-load-model skips training, so it does not take"
		unused = []setFlag{{"-resume", o.resume != ""}, {"-checkpoint", o.ckptPath != ""}, {"-checkpoint-every", o.ckptEvery != 0}}
	case "gan":
		why = "-generator gan does not take"
		unused = []setFlag{
			{"-save", o.saveModel != ""}, {"-load-model", o.loadModel != ""}, {"-resume", o.resume != ""},
			{"-checkpoint-every", o.ckptEvery != 0}, {"-stateful-repair", o.stateful},
		}
	default:
		return fmt.Errorf("unknown generator %q (want diffusion or gan)", o.generator)
	}
	for _, f := range unused {
		if f.set {
			return fmt.Errorf("%s %s", why, f.name)
		}
	}
	return nil
}

func run(o runOpts) error {
	if err := o.check(); err != nil {
		return err
	}
	outDir, classes, perClass, trainN := o.outDir, o.classes, o.perClass, o.trainN
	generator, seed, rows, steps, keepReal := o.generator, o.seed, o.rows, o.steps, o.keepReal
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	ds, err := workload.Generate(workload.Config{
		Seed: seed, FlowsPerClass: trainN, Only: classes, MaxPacketsPerFlow: rows,
	})
	if err != nil {
		return err
	}
	byClass := ds.ByClass()
	if keepReal {
		for class, flows := range byClass {
			if err := writePcap(filepath.Join(outDir, "real_"+class+".pcap"), flows); err != nil {
				return err
			}
		}
		log.Printf("wrote real fine-tuning pcaps for %d classes", len(byClass))
	}

	switch generator {
	case "diffusion":
		var synth *core.Synthesizer
		if o.loadModel != "" {
			f, err := os.Open(o.loadModel)
			if err != nil {
				return err
			}
			synth, err = core.Load(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			log.Printf("loaded fine-tuned synthesizer from %s", o.loadModel)
		} else {
			cfg := core.DefaultConfig()
			cfg.Seed = seed
			cfg.Rows = rows
			cfg.BaseSteps = steps / 2
			cfg.FineTuneSteps = steps - steps/2
			var err error
			synth, err = core.New(cfg, classes)
			if err != nil {
				return err
			}
			ft := core.FineTuneOptions{
				CheckpointEvery: o.ckptEvery,
				ResumeFrom:      o.resume,
				Progress:        progressLogger(o.progressN),
			}
			// Checkpointing turns on whenever an interval or a resume
			// source is given; the file defaults next to the outputs.
			if o.ckptEvery > 0 || o.resume != "" {
				ft.CheckpointPath = o.ckptPath
				if ft.CheckpointPath == "" {
					if o.resume != "" {
						ft.CheckpointPath = o.resume
					} else {
						ft.CheckpointPath = filepath.Join(outDir, "train.ckpt")
					}
				}
			}
			if o.resume != "" {
				log.Printf("resuming fine-tune from %s", o.resume)
			}
			log.Printf("fine-tuning diffusion pipeline on %d flows (%d classes)...", len(ds.Flows), len(classes))
			report, err := synth.FineTuneWithOptions(byClass, ft)
			if err != nil {
				return err
			}
			logLossCurve("base", report.BaseLosses)
			logLossCurve("lora", report.FineTuneLosses)
		}
		if o.saveModel != "" {
			f, err := os.Create(o.saveModel)
			if err != nil {
				return err
			}
			if err := synth.Save(f); err != nil {
				// The Save error takes precedence over any close failure.
				_ = f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			log.Printf("saved synthesizer to %s", o.saveModel)
		}
		for _, class := range classes {
			res, err := synth.Generate(class, perClass)
			if err != nil {
				return err
			}
			outFlows := res.Flows
			if o.stateful {
				outFlows, err = repair.Flows(outFlows, seed+777)
				if err != nil {
					return err
				}
			}
			path := filepath.Join(outDir, "synthetic_"+class+".pcap")
			if err := writePcap(path, outFlows); err != nil {
				return err
			}
			log.Printf("%s: %d flows -> %s (seed %d, raw protocol compliance %.3f, %d cells projected)",
				class, len(outFlows), path, res.Root, res.RawCompliance, res.Repaired)
		}
	case "gan":
		micro := eval.MicroSpace(classes)
		var feats [][]float64
		var labels []int
		for _, f := range ds.Flows {
			feats = append(feats, netflow.FromFlow(f).FullVector())
			id, err := micro.LabelOf(f)
			if err != nil {
				return err
			}
			labels = append(labels, id)
		}
		gcfg := gan.DefaultConfig()
		gcfg.Seed = seed
		log.Printf("training NetShare-style GAN on %d NetFlow records...", len(feats))
		model, err := gan.Train(feats, labels, micro.K(), gcfg)
		if err != nil {
			return err
		}
		genFull, genL := model.Generate(perClass*len(classes), seed+1)
		genF := make([][]float64, len(genFull))
		for i, row := range genFull {
			genF[i] = netflow.ClassifierFeaturesFromFull(row)
		}
		path := filepath.Join(outDir, "gan_netflow.csv")
		if err := writeNetflowCSV(path, genF, genL, micro); err != nil {
			return err
		}
		log.Printf("wrote %d GAN NetFlow records -> %s", len(genF), path)
	}
	return nil
}

func writePcap(path string, flows []*flow.Flow) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// A failed close on a written file loses buffered packets; surface
	// it unless an earlier write error already explains the damage.
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w, err := pcap.NewWriter(f, pcap.LinkTypeEthernet)
	if err != nil {
		return err
	}
	for _, fl := range flows {
		for _, p := range fl.Packets {
			if err := w.WritePacket(p.Timestamp, p.Data); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeNetflowCSV(path string, feats [][]float64, labels []int, micro *eval.LabelSpace) error {
	var b strings.Builder
	fmt.Fprint(&b, "label")
	for _, n := range netflow.FeatureNames {
		fmt.Fprintf(&b, ",%s", n)
	}
	fmt.Fprintln(&b)
	for i, row := range feats {
		fmt.Fprint(&b, micro.Names[labels[i]])
		for _, v := range row {
			fmt.Fprintf(&b, ",%g", v)
		}
		fmt.Fprintln(&b)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// progressLogger returns a FineTune progress hook that logs loss,
// gradient norm and step rate every n steps plus at each phase's last
// step; n <= 0 disables logging.
func progressLogger(n int) func(core.TrainProgress) {
	if n <= 0 {
		return nil
	}
	return func(p core.TrainProgress) {
		if (p.Step+1)%n != 0 && p.Step+1 != p.TotalSteps {
			return
		}
		log.Printf("%s step %d/%d: loss %.4f, grad norm %.3f, %.1f steps/s",
			p.Phase, p.Step+1, p.TotalSteps, p.Loss, p.GradNorm, p.StepsPerSec)
	}
}

func logLossCurve(name string, losses []float64) {
	if len(losses) == 0 {
		return
	}
	head, tail := losses[0], losses[len(losses)-1]
	log.Printf("%s training: %d steps, loss %.4f -> %.4f", name, len(losses), head, tail)
}
