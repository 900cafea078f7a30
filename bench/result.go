package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// counts is requests attempted, succeeded and failed in one phase.
type counts struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

func phaseCounts(ph *phase) counts {
	a, f := ph.counts()
	return counts{Attempted: a, Succeeded: a - f, Failed: f}
}

// runResult is one workload run: what the child process prints and
// what result.json lists.
type runResult struct {
	Workload       string  `json:"workload"`
	Seed           uint64  `json:"seed"`
	Seconds        float64 `json:"seconds"`
	Trace          int     `json:"trace"`
	Model          string  `json:"model"`
	ScheduleDigest string  `json:"schedule_digest"`
	// Phases counts requests per phase: warmup, measured, and on a
	// traced run plain/traced/engine_replay.
	Phases map[string]counts `json:"phases"`
	// CacheHits and CacheMisses are the X-Cache verdicts seen in the
	// measured phase (router_repeat): a pure function of the seed.
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	// CheckFailures are correctness failures beyond single replies
	// (counter reconciliation); Failures samples the per-reply ones.
	CheckFailures []string `json:"check_failures,omitempty"`
	Failures      []string `json:"failures,omitempty"`
	// Valid is false when the load generator itself ran late (open
	// loop send delay p99 above 5 ms): the numbers describe the
	// generator, not the system.
	Valid   bool              `json:"valid"`
	Metrics map[string]metric `json:"metrics"`
	// Table is the layer table of a traced run.
	Table     []tableRow `json:"layer_table,omitempty"`
	TableNote string     `json:"layer_table_note,omitempty"`
}

// failed is every failure that makes the run incorrect.
func (r *runResult) failed() int {
	return r.Phases["measured"].Failed + r.Phases["warmup"].Failed + len(r.CheckFailures)
}

// hostInfo is the declared configuration every output records.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       int    `json:"gogc"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	// HostOK is false when the host has fewer cores than the pinned
	// GOMAXPROCS; such a run is not comparable with the reference.
	HostOK bool `json:"host_ok"`
}

// Process settings mirror cmd/traced: two Ps so the network is polled
// while compute runs, and a GC paced for a small serving heap.
const (
	pinnedProcs = 2
	pinnedGOGC  = 400
)

func pinProcess() {
	runtime.GOMAXPROCS(pinnedProcs)
	debug.SetGCPercent(pinnedGOGC)
}

func readHost() hostInfo {
	h := hostInfo{
		CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: pinnedGOGC,
		GoVersion: runtime.Version(), Commit: "unknown",
	}
	h.HostOK = h.NumCPU >= pinnedProcs
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
		// Read-only file; a close error loses nothing.
		_ = f.Close()
	}
	if cwd, err := os.Getwd(); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		// Never report the commit of some repository above the checkout.
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(cwd))
		if out, err := cmd.Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	return h
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	// No procfs: the runtime's own view of memory obtained from the OS.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// report is result.json.
type report struct {
	Host    hostInfo `json:"host"`
	Seed    uint64   `json:"seed"`
	Seconds float64  `json:"seconds"`
	// Scale is the one factor every workload's reference request
	// counts were multiplied by (seconds/30).
	Scale float64 `json:"scale"`
	// Claim is always null: this benchmark measures, it claims no gain.
	Claim   *string                             `json:"claim"`
	Started string                              `json:"started"`
	Runs    []*runResult                        `json:"runs"`
	Summary map[string]map[string]metricSummary `json:"summary"`
}

// metricSummary is a metric over the runs of one workload.
type metricSummary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Spread is (q3-q1)/median, the acceptance statistic.
	Spread float64 `json:"spread"`
}

// summarize reduces the untraced runs to medians and quartiles per
// workload and metric.
func summarize(runs []*runResult) map[string]map[string]metricSummary {
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		if r.Trace != 0 {
			continue
		}
		if values[r.Workload] == nil {
			values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], m.Value)
			units[name] = m.Unit
		}
	}
	out := map[string]map[string]metricSummary{}
	for w, byMetric := range values {
		out[w] = map[string]metricSummary{}
		for name, xs := range byMetric {
			s := metricSummary{Unit: units[name], N: len(xs), Median: median(xs)}
			if q1, q2, q3, err := quartiles(xs); err == nil {
				s.Median, s.Q1, s.Q3 = q2, q1, q3
				if q2 > 0 {
					s.Spread = (q3 - q1) / q2
				}
			}
			out[w][name] = s
		}
	}
	return out
}

// printRun writes a run's metrics as "workload metric value unit"
// lines, end-to-end metrics in table order and then anything else.
func printRun(r *runResult) {
	defs := endToEnd
	if r.Trace != 0 {
		defs = perLayer
	}
	seen := map[string]bool{}
	line := func(name string) {
		m, ok := r.Metrics[name]
		if !ok {
			return
		}
		seen[name] = true
		extra := ""
		if m.Samples > 0 {
			extra += fmt.Sprintf(" n=%d", m.Samples)
		}
		if m.Percentile != "" {
			extra += " " + m.Percentile
		}
		if alias := aliases[r.Workload][name]; alias != "" && r.Trace == 0 {
			extra += " (" + alias + ")"
		}
		fmt.Printf("%s %s %.6g %s%s\n", r.Workload, name, m.Value, m.Unit, extra)
	}
	for _, d := range defs {
		line(d.Name)
	}
	var rest []string
	for name := range r.Metrics {
		if !seen[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		line(name)
	}
	var phases []string
	for name := range r.Phases {
		phases = append(phases, name)
	}
	sort.Strings(phases)
	for _, name := range phases {
		c := r.Phases[name]
		fmt.Printf("%s requests.%s attempted=%d succeeded=%d failed=%d\n", r.Workload, name, c.Attempted, c.Succeeded, c.Failed)
	}
	fmt.Printf("%s schedule_digest %s\n", r.Workload, r.ScheduleDigest)
	if r.CacheHits+r.CacheMisses > 0 {
		fmt.Printf("%s cache hits=%d misses=%d\n", r.Workload, r.CacheHits, r.CacheMisses)
	}
	if !r.Valid {
		fmt.Printf("%s INVALID: the load generator ran late (see loadgen.send_delay_ms_p99)\n", r.Workload)
	}
	for _, f := range append(append([]string(nil), r.CheckFailures...), r.Failures...) {
		fmt.Printf("%s FAILED %s\n", r.Workload, f)
	}
	if len(r.Table) > 0 {
		fmt.Printf("%s layer table: %s\n", r.Workload, r.TableNote)
		var sum float64
		for _, row := range r.Table {
			fmt.Printf("%s   %-18s %12.1f us %6.1f %%\n", r.Workload, row.Layer, row.Us, 100*row.Share)
			sum += row.Us
		}
		fmt.Printf("%s   %-18s %12.1f us\n", r.Workload, "total", sum)
	}
}
