package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Verdicts of comparing one metric on one workload across two sets of
// runs: a is the reference, b the candidate.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
)

// judge decides one workload × metric pairing. A metric whose
// quartile spread on either side is wider than its bound cannot tell a
// change from noise: it is unresolved, never "unchanged".
func judge(d metricDef, a, b metricSummary) string {
	tol := d.Bound * a.Median
	spreadA, spreadB := a.Q3-a.Q1, b.Q3-b.Q1
	if d.Absolute {
		tol = d.Bound
	}
	if spreadA > tol || spreadB > tol {
		return verdictUnresolved
	}
	delta := b.Median - a.Median
	if d.Better == "higher" {
		delta = -delta
	}
	switch {
	case delta > tol:
		return verdictWorse
	case delta < -tol:
		return verdictBetter
	}
	return verdictOK
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	// Recompute instead of trusting the stored summary.
	rep.Summary = summarize(rep.Runs)
	return rep, nil
}

// compareFiles prints, for every workload × end-to-end metric present
// in both files, both medians, the delta, the bound and the verdict,
// then whether inputs were identical. It reports whether any pairing is
// worse.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	tally := map[string]int{}
	fmt.Fprintf(w, "%-14s %-16s %12s %12s %9s %8s  %s\n", "workload", "metric", "a median", "b median", "delta", "bound", "verdict")
	for _, name := range workloadNames {
		sa, sb := a.Summary[name], b.Summary[name]
		if sa == nil || sb == nil {
			continue
		}
		for _, d := range endToEnd {
			ma, okA := sa[d.Name]
			mb, okB := sb[d.Name]
			if !okA || !okB {
				continue
			}
			if ma.N < 2 || mb.N < 2 {
				// One run has no spread to judge against.
				ma.Q1, ma.Q3, mb.Q1, mb.Q3 = ma.Median, ma.Median, mb.Median, mb.Median
			}
			v := judge(d, ma, mb)
			tally[v]++
			delta, bound := "", fmt.Sprintf("%.0f%%", 100*d.Bound)
			if d.Absolute {
				delta, bound = fmt.Sprintf("%+.4f", mb.Median-ma.Median), fmt.Sprintf("%.2f abs", d.Bound)
			} else if ma.Median > 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(mb.Median-ma.Median)/ma.Median)
			}
			label := d.Name
			if alias := aliases[name][d.Name]; alias != "" {
				label = alias
			}
			fmt.Fprintf(w, "%-14s %-16s %12.5g %12.5g %9s %8s  %s\n", name, label, ma.Median, mb.Median, delta, bound, v)
		}
	}
	fmt.Fprintf(w, "verdicts: %d ok, %d better, %d worse, %d unresolved\n",
		tally[verdictOK], tally[verdictBetter], tally[verdictWorse], tally[verdictUnresolved])

	// Inputs and seed-determined counts must be identical wherever the
	// two sets ran the same workload with the same seed.
	type key struct {
		workload string
		seed     uint64
	}
	inputs := func(r *report) map[key]string {
		out := map[key]string{}
		for _, run := range r.Runs {
			if run.Trace == 0 {
				out[key{run.Workload, run.Seed}] = fmt.Sprintf("%s hits=%d misses=%d", run.ScheduleDigest, run.CacheHits, run.CacheMisses)
			}
		}
		return out
	}
	ia, ib := inputs(a), inputs(b)
	var shared []key
	for k := range ia {
		if _, ok := ib[k]; ok {
			shared = append(shared, k)
		}
	}
	sort.Slice(shared, func(i, j int) bool {
		if shared[i].workload != shared[j].workload {
			return shared[i].workload < shared[j].workload
		}
		return shared[i].seed < shared[j].seed
	})
	differ := 0
	for _, k := range shared {
		if ia[k] != ib[k] {
			differ++
			fmt.Fprintf(w, "inputs differ: %s seed %d: %s vs %s\n", k.workload, k.seed, ia[k], ib[k])
		}
	}
	fmt.Fprintf(w, "inputs: %d shared workload/seed pairs, %d with different schedule digest or hit/miss counts\n", len(shared), differ)
	return tally[verdictWorse] > 0 || differ > 0, nil
}
