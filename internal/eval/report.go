package eval

import (
	"fmt"
	"sort"
	"strings"

	"trafficdiff/internal/workload"
)

// Table1Report renders the dataset composition the way the paper's
// Table 1 does, for a generated dataset.
func Table1Report(ds *workload.Dataset) string {
	counts := ds.ClassCounts()
	type row struct {
		macro workload.MacroService
		name  string
		n     int
	}
	var rows []row
	for _, p := range workload.Catalog() {
		if n, ok := counts[p.Name]; ok {
			rows = append(rows, row{p.Macro, p.Name, n})
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %-12s %8s\n", "Macro Service", "Application", "Flows")
	fmt.Fprintln(&b, strings.Repeat("-", 44))
	macroTotals := map[workload.MacroService]int{}
	total := 0
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %-12s %8d\n", r.macro, r.name, r.n)
		macroTotals[r.macro] += r.n
		total += r.n
	}
	fmt.Fprintln(&b, strings.Repeat("-", 44))
	var macros []string
	for m := range macroTotals {
		macros = append(macros, string(m))
	}
	sort.Strings(macros)
	for _, m := range macros {
		fmt.Fprintf(&b, "%-22s %-12s %8d\n", m, "(total)", macroTotals[workload.MacroService(m)])
	}
	fmt.Fprintf(&b, "%-22s %-12s %8d\n", "all", "", total)
	return b.String()
}

// Table2Report renders the six-scenario accuracy table in the paper's
// Table 2 layout.
func Table2Report(r *Table2Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %-24s %8s %8s\n", "Training/Testing Data", "Granularity", "Macro", "Micro")
	fmt.Fprintln(&b, strings.Repeat("-", 72))
	row := func(name, gran string, c Cell) {
		fmt.Fprintf(&b, "%-28s %-24s %8.2f %8.2f\n", name, gran, c.Macro, c.Micro)
	}
	row("Real/Real", GranularityNprint.String(), r.RealRealNprint)
	row("Real/Real", GranularityNetFlow.String(), r.RealRealNetFlow)
	row("Real/Synthetic (Ours)", GranularityNprint.String(), r.RealSynthOurs)
	row("Real/Synthetic (GAN)", GranularityNetFlow.String(), r.RealSynthGAN)
	row("Synthetic/Real (Ours)", GranularityNprint.String(), r.SynthRealOurs)
	row("Synthetic/Real (GAN)", GranularityNetFlow.String(), r.SynthRealGAN)
	fmt.Fprintf(&b, "\n(train=%d real flows, test=%d real flows, synth=%d flows)\n",
		r.TrainFlows, r.TestFlows, r.SynthFlows)
	if len(r.SynthRealOursRecall) == len(r.Classes) {
		fmt.Fprintf(&b, "\nper-class recall, Synthetic/Real (Ours) micro:\n")
		for i, c := range r.Classes {
			fmt.Fprintf(&b, "  %-12s %.2f\n", c, r.SynthRealOursRecall[i])
		}
	}
	return b.String()
}

// Fig1Report renders the per-class proportion comparison.
func Fig1Report(r *Fig1Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %10s %10s\n", "Class", "Real %", "GAN %", "Ours %")
	fmt.Fprintln(&b, strings.Repeat("-", 46))
	for i, c := range r.Classes {
		fmt.Fprintf(&b, "%-12s %10.2f %10.2f %10.2f\n", c, 100*r.Real[i], 100*r.GAN[i], 100*r.Ours[i])
	}
	fmt.Fprintln(&b, strings.Repeat("-", 46))
	fmt.Fprintf(&b, "imbalance ratio (max/min): real %.2f, gan %.2f, ours %.2f\n",
		r.ImbalanceReal, r.ImbalanceGAN, r.ImbalanceOurs)
	return b.String()
}

// Fig2Report renders the compliance audit next to the image metadata.
func Fig2Report(r *Fig2Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "synthetic %s flow: %d packets, %d-byte PNG rendered\n", r.Class, r.Rows, len(r.PNG))
	fmt.Fprintf(&b, "protocol compliance: raw %.3f -> post-projection %.3f\n",
		r.RawProtocolCompliance, r.PostProtocolCompliance)
	var names []string
	for n := range r.SectionActive {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  section %-5s active in %5.1f%% of packets\n", n, 100*r.SectionActive[n])
	}
	return b.String()
}

// PerClassGANReport renders the supplemental experiment.
func PerClassGANReport(r *PerClassGANResult) string {
	return fmt.Sprintf("per-class GANs, Synthetic/Real: macro %.2f, micro %.2f\n",
		r.SynthRealMacro, r.SynthRealMicro)
}
