// Command bench is the repository's one benchmark: five workloads over
// the whole request path — tensor kernels, denoiser forward, diffusion
// scheduler, core engine, traced, tracerouter — on one paper-scale
// model and one declared process configuration.
//
//	go run ./bench -seed 1                  all five workloads, end-to-end metrics
//	go run ./bench -seed 1 -layers          plus the per-layer pass and the layer table
//	go run ./bench -seed 1 -workload serve_small
//	go run ./bench -seed 1 -runs 10 -out bench/out/a   ten runs per workload (seeds 1..10)
//	go run ./bench -compare a/result.json b/result.json
//
// With -workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1. That is the form
// BENCHMARK.json's command is run in.
//
// The parent process trains the model once and runs every workload in
// a child process of the same binary, so set-up time, peak memory and
// heap state are per workload. See README.md for the metric glossary
// and why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

func main() {
	var (
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 20, "nominal length of each measured phase; request counts scale by seconds/30")
		workload = flag.String("workload", "", "run one workload (default: all) and end with the driver's JSON line")
		trace    = flag.Int("trace", 0, "1 = the traced per-layer pass instead of the end-to-end pass")
		layers   = flag.Bool("layers", false, "run the end-to-end pass and then the per-layer pass")
		runs     = flag.Int("runs", 1, "repeat every selected workload this many times, seeds seed, seed+1, ...")
		outDir   = flag.String("out", filepath.Join("bench", "out"), "directory for result.json, traces and the checkpoint")
		compare  = flag.Bool("compare", false, "compare two result.json files given as arguments")
		child    = flag.Bool("child", false, "internal: run one workload in this process and print its result as JSON")
		ckptPath = flag.String("checkpoint", "", "internal: checkpoint the child loads")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result.json files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	pinProcess()
	if *child {
		if err := runChild(*workload, *seed, *seconds, *trace, *ckptPath, *outDir); err != nil {
			fatal(err)
		}
		return
	}
	ok, err := runParent(*workload, *seed, *seconds, *trace, *layers, *runs, *outDir)
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runChild is one workload in its own process.
func runChild(name string, seed uint64, seconds float64, trace int, ckptPath, outDir string) error {
	ckpt, err := os.ReadFile(ckptPath)
	if err != nil {
		return err
	}
	var res *runResult
	if trace != 0 {
		res, err = runTraced(paperModel(), ckpt, name, seed, seconds, layerMinDur, filepath.Join(outDir, "trace-"+name+".json"))
	} else {
		res, err = runPlain(paperModel(), ckpt, name, seed, seconds)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// runParent trains once and runs the selected workloads, each in a
// child process. It reports whether every run was correct.
func runParent(only string, seed uint64, seconds float64, trace int, layers bool, runs int, outDir string) (bool, error) {
	names := workloadNames
	if only != "" {
		if _, known := workloadWhy[only]; !known {
			return false, fmt.Errorf("unknown workload %q (have %v)", only, workloadNames)
		}
		names = []string{only}
	}
	if seconds <= 0 || runs < 1 {
		return false, fmt.Errorf("-seconds and -runs must be positive")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return false, err
	}
	host := readHost()
	if !host.HostOK {
		fmt.Fprintf(os.Stderr, "bench: host has %d CPU(s), fewer than GOMAXPROCS %d: host_ok=false, numbers are not comparable with the reference\n", host.NumCPU, pinnedProcs)
	}

	t0 := time.Now()
	ckpt, err := trainCheckpoint(paperModel())
	if err != nil {
		return false, err
	}
	ckptPath := filepath.Join(outDir, fmt.Sprintf("model-%d.ckpt", os.Getpid()))
	if err := os.WriteFile(ckptPath, ckpt, 0o644); err != nil {
		return false, err
	}
	// The checkpoint is a scratch file of this invocation.
	defer func() { _ = os.Remove(ckptPath) }()
	fmt.Fprintf(os.Stderr, "bench: trained the model in %.1fs (not part of setup_s)\n", time.Since(t0).Seconds())

	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	passes := []int{trace}
	if layers {
		passes = []int{0, 1}
	}
	rep := &report{Host: host, Seed: seed, Seconds: seconds, Scale: seconds / referenceSeconds, Started: time.Now().UTC().Format(time.RFC3339)}
	ok := true
	for run := 0; run < runs; run++ {
		for _, name := range names {
			for _, pass := range passes {
				res, err := spawnChild(exe, name, seed+uint64(run), seconds, pass, ckptPath, outDir)
				if err != nil {
					return false, fmt.Errorf("%s: %w", name, err)
				}
				printRun(res)
				rep.Runs = append(rep.Runs, res)
				if res.failed() > 0 {
					ok = false
				}
			}
		}
	}
	rep.Summary = summarize(rep.Runs)
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(filepath.Join(outDir, "result.json"), append(data, '\n'), 0o644); err != nil {
		return false, err
	}
	if only != "" {
		// The driver's line: the last run of the selected pass.
		if err := printDriverLine(rep.Runs[len(rep.Runs)-1]); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// spawnChild runs one workload pass in a child process and decodes the
// result it prints. The child's diagnostics pass through on stderr.
func spawnChild(exe, name string, seed uint64, seconds float64, trace int, ckptPath, outDir string) (*runResult, error) {
	cmd := exec.Command(exe, "-child",
		"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(trace), "-checkpoint", ckptPath, "-out", outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	res := &runResult{}
	if err := json.Unmarshal(out, res); err != nil {
		return nil, fmt.Errorf("child output: %w", err)
	}
	return res, nil
}

// printDriverLine prints the one-object summary the benchmark driver
// reads: every gated end-to-end metric, or every per-layer metric on a
// traced run.
func printDriverLine(r *runResult) error {
	defs := gatedMetrics()
	if r.Trace != 0 {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s: run has no metric %s", r.Workload, d.Name)
		}
		metrics[d.Name] = value{Value: m.Value, Unit: d.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.failed() == 0,
		"attempted": r.Phases["measured"].Attempted,
		"failed":    r.failed(),
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
