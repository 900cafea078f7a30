// Command benchjson converts `go test -bench -benchmem` text output
// (read from stdin) into a JSON snapshot suitable for committing next
// to the code it measures (BENCH_kernels.json). Each invocation parses
// one bench run into a labeled record; with -append the record is added
// to the existing file's runs array so before/after comparisons live in
// one document.
//
// Usage:
//
//	go test -bench . -benchmem ./... | benchjson -label post-PR -out BENCH_kernels.json -append
//
// With -suite serve it runs a built-in end-to-end benchmark instead of
// parsing stdin: a tiny synthesizer is trained in-process, served from
// an ephemeral listener, and loaded with concurrent generate requests;
// the record carries req/s, flows/s, and p50/p99 latency:
//
//	benchjson -suite serve -label post-PR -out BENCH_serve.json -append
//
// With -suite router the same replicas run behind an in-process
// cluster router (internal/cluster): the record compares 1- vs
// 3-replica throughput and content-addressed cache-hit vs miss latency:
//
//	benchjson -suite router -label post-PR -out BENCH_router.json -append
//
// With -suite load the in-process server is driven through the
// traceload harness (internal/load): an embedded two-client workload
// spec — bulk poisson plus bursty gamma interactive — is expanded to a
// seeded open-loop schedule and fired at the server; the record
// carries per-SLO-class p50/p95, attainment, and shed counts, gated on
// the batch-class p95:
//
//	benchjson -suite load -label post-PR -out BENCH_load.json -append
//
// With -compare it becomes a regression gate instead of a recorder:
//
//	benchjson -compare old.json new.json [-threshold 0.10]
//
// pairs benchmarks between the latest run of each snapshot (or the
// runs picked by -old-label/-new-label, which may address two runs in
// one file) and exits non-zero when any ns/op regressed past the
// threshold. `make bench-gate` wires this against the committed
// baseline.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Package     string  `json:"package,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Custom holds testing.B.ReportMetric extras (e.g. flows/s).
	Custom map[string]float64 `json:"custom,omitempty"`
}

// Run is one labeled bench invocation.
type Run struct {
	Label   string   `json:"label"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

// Doc is the committed snapshot: a series of runs over time.
type Doc struct {
	Runs []Run `json:"runs"`
}

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	label := flag.String("label", "bench", "label for this run")
	appendRun := flag.Bool("append", false, "append to an existing -out document instead of overwriting")
	suite := flag.String("suite", "", "run a built-in suite instead of parsing stdin (serve, serve-stagger, router, load)")
	requests := flag.Int("requests", 64, "total requests for -suite serve/load (probe count for serve-stagger)")
	clients := flag.Int("clients", 8, "concurrent clients for -suite serve")
	compare := flag.Bool("compare", false, "compare two snapshots: benchjson -compare old.json new.json")
	threshold := flag.Float64("threshold", 0.10, "per-benchmark ns/op regression threshold for -compare")
	oldLabel := flag.String("old-label", "", "run label to compare from (default: last run in old.json)")
	newLabel := flag.String("new-label", "", "run label to compare to (default: last run in new.json)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			log.Printf("benchjson: pprof: %v", http.ListenAndServe(*pprofAddr, nil))
		}()
	}

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two snapshot paths")
			os.Exit(2)
		}
		ok, err := runCompare(flag.Arg(0), flag.Arg(1), *oldLabel, *newLabel, *threshold, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	var run *Run
	var err error
	switch *suite {
	case "":
		run, err = parse(bufio.NewScanner(os.Stdin), *label)
	case "serve":
		run, err = runServeSuite(*label, *requests, *clients)
	case "serve-stagger":
		run, err = runServeStaggerSuite(*label, *requests)
	case "router":
		run, err = runRouterSuite(*label, *requests, *clients)
	case "load":
		run, err = runLoadSuite(*label, *requests)
	default:
		err = fmt.Errorf("unknown suite %q (want serve, serve-stagger, router or load)", *suite)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	doc := &Doc{}
	if *appendRun && *out != "" {
		if data, err := os.ReadFile(*out); err == nil {
			if err := json.Unmarshal(data, doc); err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: existing %s: %v\n", *out, err)
				os.Exit(1)
			}
		}
	}
	doc.Runs = append(doc.Runs, *run)

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		if _, err := os.Stdout.Write(data); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parse reads go-test bench output. Lines look like:
//
//	pkg: trafficdiff/internal/tensor
//	cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
//	BenchmarkMatMul/8x2176x128-4  	 100	 123456 ns/op	 7.9 flows/s	 64 B/op	 2 allocs/op
func parse(sc *bufio.Scanner, label string) (*Run, error) {
	run := &Run{Label: label}
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			run.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := Result{Name: trimProcSuffix(fields[0]), Package: pkg, Iterations: iters}
		// Remaining fields come in (value, unit) pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = int64(v)
			case "allocs/op":
				r.AllocsPerOp = int64(v)
			default:
				if r.Custom == nil {
					r.Custom = map[string]float64{}
				}
				r.Custom[unit] = v
			}
		}
		run.Results = append(run.Results, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(run.Results) == 0 {
		return nil, fmt.Errorf("no benchmark lines found on stdin")
	}
	return run, nil
}

// trimProcSuffix drops the -N GOMAXPROCS suffix go test appends to
// benchmark names, so records compare across machines.
func trimProcSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}
