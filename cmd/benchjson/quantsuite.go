package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"trafficdiff/internal/eval"
)

// Quant suite gate parameters. The tolerance is absolute micro
// accuracy: every (precision, steps) point must hold Synthetic/Real RF
// accuracy within this much of the fp32/64-step reference. The sweep's
// datasets are small (CI budget), so per-point accuracy moves in
// 1/test-set-size quanta; the tolerance absorbs that sampling noise
// while still catching a quantization bug that collapses class
// structure (which drops accuracy toward chance, far past any noise).
const quantFidelityTol = 0.20

// runQuantSuite is the built-in `-suite quant` benchmark: the
// fidelity-vs-speed frontier behind the int8 + few-step DDIM serving
// path. One tiny synthesizer is trained in-process, then every
// (precision ∈ {fp32, int8}) × (steps ∈ {4, 8, 16}) configuration is
// measured over identical weights against an fp32/64-step reference —
// flows/s for the speed axis, Synthetic/Real RF accuracy for the
// fidelity axis. The suite is also the fidelity gate: it exits non-zero
// when any point's accuracy falls more than quantFidelityTol below the
// reference (bench-quant-gate adds the flows/s regression check). Speed
// is printed, not gated: int8's flows/s over fp32's at the same step
// count — the ratio to the 64-step reference measures few-step DDIM and
// moves whenever the fp32 kernel does.
func runQuantSuite(label string) (*Run, error) {
	debug.SetGCPercent(400)
	if runtime.GOMAXPROCS(0) == 1 {
		runtime.GOMAXPROCS(2)
	}

	cfg := eval.DefaultFrontierConfig()
	rep, err := eval.RunFrontier(cfg)
	if err != nil {
		return nil, fmt.Errorf("frontier sweep: %w", err)
	}
	if err := eval.GateFrontier(rep, quantFidelityTol, 0); err != nil {
		return nil, fmt.Errorf("frontier gate: %w", err)
	}
	for _, p := range rep.Points {
		for _, q := range rep.Points {
			if p.Precision == "int8" && q.Precision == "fp32" && !q.Reference && q.Steps == p.Steps {
				fmt.Fprintf(os.Stderr, "quant: int8/fp32 at %d steps: %.2fx (%.1f vs %.1f flows/s)\n",
					p.Steps, p.FlowsPerS/q.FlowsPerS, p.FlowsPerS, q.FlowsPerS)
			}
		}
	}

	run := &Run{Label: label, CPU: fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0))}
	for _, p := range rep.Points {
		name := fmt.Sprintf("QuantFrontier/%s/steps=%d", p.Precision, p.Steps)
		if p.Reference {
			name += "/ref"
		}
		run.Results = append(run.Results, Result{
			Name:       name,
			Package:    "trafficdiff/internal/eval",
			Iterations: 1,
			NsPerOp:    float64(time.Second) / p.FlowsPerS, // ns per generated flow
			Custom: map[string]float64{
				"flows/s":  p.FlowsPerS,
				"speedup":  p.Speedup,
				"rf_micro": p.RFMicro,
				"rf_macro": p.RFMacro,
			},
		})
	}
	return run, nil
}
