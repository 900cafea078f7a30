// Foundation-model tasks: the paper's §4 research agenda beyond plain
// generation — traffic deblurring and traffic-to-traffic translation.
//
//	go run ./examples/foundation
//
// It fine-tunes a pipeline on Amazon (TCP) and Teams (UDP), then
//
//  1. deblurs an Amazon flow whose entire TCP header section was lost
//     (the model restores the missing fields, anchored to the intact
//     IPv4 bits), and
//  2. translates the same flow into Teams style (the paper's
//     VPN-Netflix/YouTube translation example, in miniature) — the
//     output flips to UDP while keeping flow-level structure.
package main

import (
	"fmt"
	"log"

	"trafficdiff/internal/core"
	"trafficdiff/internal/packet"
	"trafficdiff/internal/workload"
)

func main() {
	log.SetFlags(0)
	classes := []string{"amazon", "teams"}
	ds, err := workload.Generate(workload.Config{
		Seed: 5, FlowsPerClass: 10, Only: classes, MaxPacketsPerFlow: 32,
	})
	if err != nil {
		log.Fatal(err)
	}
	byClass := ds.ByClass()

	cfg := core.DefaultConfig()
	cfg.Hidden = 96
	cfg.BaseSteps = 120
	cfg.FineTuneSteps = 180
	synth, err := core.New(cfg, classes)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("fine-tuning ...")
	if _, err := synth.FineTune(byClass); err != nil {
		log.Fatal(err)
	}

	src := byClass["amazon"][0]
	fmt.Printf("source: %d-packet amazon flow, dominant protocol %v\n\n",
		len(src.Packets), src.DominantProtocol())

	// --- Task 1: traffic deblurring. ---
	res, err := synth.Deblur(src, "amazon", []core.FieldMask{core.MaskTCP})
	if err != nil {
		log.Fatal(err)
	}
	restored := res.Flows[0]
	tcpCount := 0
	for _, p := range restored.Packets {
		if p.TCP != nil {
			tcpCount++
		}
	}
	fmt.Printf("deblur (TCP section masked out): restored %d packets, %d with TCP headers\n",
		len(restored.Packets), tcpCount)
	fmt.Printf("  raw cell compliance %.3f, %d cells repaired\n\n", res.RawCellCompliance, res.Repaired)

	// --- Task 2: traffic-to-traffic translation. ---
	tr, err := synth.Translate(src, "teams", 0.8)
	if err != nil {
		log.Fatal(err)
	}
	counts := map[packet.IPProtocol]int{}
	for _, p := range tr.Flows[0].Packets {
		counts[p.TransportProtocol()]++
	}
	fmt.Printf("translate amazon -> teams (strength 0.8): %d packets, protocol mix %v\n",
		len(tr.Flows[0].Packets), counts)
	fmt.Println("  (the translated flow adopts the target class's UDP transport)")
}
