// Quickstart: train the text-to-traffic pipeline on two applications
// and generate synthetic, replayable flows.
//
//	go run ./examples/quickstart
//
// It fine-tunes a small diffusion model on generated "real" Amazon
// (TCP) and Teams (UDP) traffic, prompts it per class, and prints the
// protocol makeup of the synthetic flows — demonstrating the paper's
// headline controllability property (synthetic Amazon stays all-TCP,
// Teams all-UDP), then writes one synthetic pcap per class.
package main

import (
	"fmt"
	"log"
	"os"

	"trafficdiff/internal/core"
	"trafficdiff/internal/pcap"
	"trafficdiff/internal/workload"
)

func main() {
	log.SetFlags(0)
	classes := []string{"amazon", "teams"}

	// 1. Obtain labeled "real" traffic (the workload generator stands
	//    in for curated captures).
	ds, err := workload.Generate(workload.Config{
		Seed: 42, FlowsPerClass: 12, Only: classes, MaxPacketsPerFlow: 32,
	})
	if err != nil {
		log.Fatal(err)
	}
	byClass := ds.ByClass()

	// 2. Configure and fine-tune the synthesizer (small settings so
	//    this runs in under a minute on a laptop CPU).
	cfg := core.DefaultConfig()
	cfg.Hidden = 96
	cfg.BaseSteps = 120
	cfg.FineTuneSteps = 180
	synth, err := core.New(cfg, classes)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("fine-tuning on", len(ds.Flows), "flows ...")
	report, err := synth.FineTune(byClass)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("base loss %.3f -> %.3f, lora loss %.3f -> %.3f\n",
		report.BaseLosses[0], report.BaseLosses[len(report.BaseLosses)-1],
		report.FineTuneLosses[0], report.FineTuneLosses[len(report.FineTuneLosses)-1])

	// 3. Generate and inspect.
	for _, class := range classes {
		prompt, _ := synth.Prompt(class)
		res, err := synth.Generate(class, 4)
		if err != nil {
			log.Fatal(err)
		}
		tcp, udp, icmp, total := 0, 0, 0, 0
		for _, f := range res.Flows {
			for _, p := range f.Packets {
				total++
				switch {
				case p.TCP != nil:
					tcp++
				case p.UDP != nil:
					udp++
				case p.ICMP != nil:
					icmp++
				}
			}
		}
		fmt.Printf("%-8s (prompt %q): %d flows, %d packets — TCP %d, UDP %d, ICMP %d (raw compliance %.2f)\n",
			class, prompt, len(res.Flows), total, tcp, udp, icmp, res.RawCompliance)

		path := "synthetic_" + class + ".pcap"
		out, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		w, err := pcap.NewWriter(out, pcap.LinkTypeEthernet)
		if err != nil {
			log.Fatal(err)
		}
		for _, f := range res.Flows {
			for _, p := range f.Packets {
				if err := w.WritePacket(p.Timestamp, p.Data); err != nil {
					log.Fatal(err)
				}
			}
		}
		out.Close()
		fmt.Println("  wrote", path)
	}
}
