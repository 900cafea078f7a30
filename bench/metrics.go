package main

// metricDef declares one metric: the single table BENCHMARK.json, the
// report, -compare and the README glossary are all written against
// (TestBenchmarkJSONMatchesTables keeps the JSON file in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the reference median by which the metric
	// may worsen before -compare calls it worse; Absolute switches it
	// to an absolute difference (shares that sit at 0 or 1).
	Bound    float64
	Absolute bool
	// Gated metrics are defined on every workload and never 0, so the
	// driver can bound them; they are BENCHMARK.json's end_to_end list.
	// The others are reported and compared but not gated there.
	Gated bool
}

// endToEnd is every end-to-end metric a run reports with tracing off.
//
// The gated names are generic so that every workload defines every
// one. Each workload has a light and a heavy kind of request:
//
//	offline_bulk   one kind, the 64-flow call: light = heavy = all
//	serve_contend  light = probe (1 flow), heavy = bulk (8 flows)
//	serve_mixed    light = interactive (1 flow), heavy = bulk (8 flows)
//	serve_small    light = pcap reply (2.3 KB), heavy = csv reply (91 KB)
//	router_repeat  light = cache hit, heavy = cache miss
//
// aliases maps them back to the workload's own vocabulary.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "flows_per_s", Unit: "flows/s", Better: "higher", Bound: 0.25, Gated: true},
	{Name: "req_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "req_ms_tail", Unit: "ms", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "light_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "light_ms_tail", Unit: "ms", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "heavy_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "heavy_ms_tail", Unit: "ms", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "slo_attainment", Unit: "share", Better: "higher", Bound: 0.05, Absolute: true},
	{Name: "failed_share", Unit: "share", Better: "lower", Bound: 0, Absolute: true},
}

// aliases names a workload's gated metrics in its own words; the
// report prints the alias beside the generic name. The percentile in a
// tail alias is the one the ≥10-beyond rule picks at -seconds 20.
var aliases = map[string]map[string]string{
	"serve_contend": {
		"light_ms_p50": "probe_ms_p50", "light_ms_tail": "probe_ms_p95",
		"heavy_ms_p50": "bulk_ms_p50", "heavy_ms_tail": "bulk_ms_p95",
	},
	"serve_mixed": {
		"light_ms_p50": "interactive_ms_p50", "light_ms_tail": "interactive_ms_p95",
		"heavy_ms_p50": "bulk_ms_p50", "heavy_ms_tail": "bulk_ms_p90",
	},
	"serve_small": {
		"light_ms_p50": "pcap_ms_p50", "heavy_ms_p50": "csv_ms_p50", "req_ms_tail": "req_ms_p99",
	},
	"router_repeat": {
		"light_ms_p50": "hit_ms_p50", "heavy_ms_p50": "miss_ms_p50", "req_ms_tail": "req_ms_p99",
	},
}

func gatedMetrics() []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if d.Gated {
			out = append(out, d)
		}
	}
	return out
}

// perLayer is every metric the -trace 1 pass reports, in layer order
// (layer = module, bottom of the request path first). rN = N batch
// rows, nN = N flows in one call. The README's interaction table says
// which end-to-end metric each should move.
var perLayer = []metricDef{
	{Name: "tensor.gemm_us_r1", Unit: "us", Better: "lower"},
	{Name: "tensor.gemm_us_r8", Unit: "us", Better: "lower"},
	{Name: "tensor.gemm_us_r64", Unit: "us", Better: "lower"},
	{Name: "tensor.gemm_gflops_r64", Unit: "gflop/s", Better: "higher"},

	{Name: "denoiser.forward_us_r1", Unit: "us", Better: "lower"},
	{Name: "denoiser.forward_us_r8", Unit: "us", Better: "lower"},
	{Name: "denoiser.forward_us_r64", Unit: "us", Better: "lower"},
	{Name: "denoiser.nongemm_share_r8", Unit: "share", Better: "lower"},

	{Name: "scheduler.step_us_r1", Unit: "us", Better: "lower"},
	{Name: "scheduler.step_us_r8", Unit: "us", Better: "lower"},
	{Name: "scheduler.step_us_r64", Unit: "us", Better: "lower"},
	{Name: "scheduler.self_us_per_row", Unit: "us", Better: "lower"},
	{Name: "scheduler.admit_us_per_flow", Unit: "us", Better: "lower"},
	{Name: "scheduler.forwards_per_flow", Unit: "count", Better: "lower"},

	{Name: "postprocess.us_per_flow", Unit: "us", Better: "lower"},

	{Name: "encode.pcap_us_per_flow", Unit: "us", Better: "lower"},
	{Name: "encode.csv_us_per_flow", Unit: "us", Better: "lower"},
	{Name: "encode.pcap_bytes_per_flow", Unit: "bytes", Better: "lower"},
	{Name: "encode.csv_bytes_per_flow", Unit: "bytes", Better: "lower"},

	{Name: "core.generate_ms_n1", Unit: "ms", Better: "lower"},
	{Name: "core.generate_ms_n64", Unit: "ms", Better: "lower"},
	{Name: "core.unattributed_ms_n1", Unit: "ms", Better: "lower"},

	{Name: "engine.overhead_ms_n1", Unit: "ms", Better: "lower"},
	{Name: "engine.admit_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.admit_wait_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "engine.batch_occupancy", Unit: "rows/step", Better: "higher"},
	{Name: "engine.rows_per_flow", Unit: "rows/flow", Better: "lower"},
	{Name: "engine.retired_share", Unit: "share", Better: "lower"},

	{Name: "serve.handler_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.http_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.admission_wait_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "serve.rejected_429", Unit: "count", Better: "lower"},
	{Name: "serve.expired_504", Unit: "count", Better: "lower"},
	{Name: "serve.completed", Unit: "count", Better: "higher"},

	{Name: "cluster.proxy_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.cache_get_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.cache_put_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.cache_hit_share", Unit: "share", Better: "higher"},
	{Name: "cluster.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "cluster.retries", Unit: "count", Better: "lower"},
	{Name: "cluster.replica_imbalance", Unit: "ratio", Better: "lower"},

	{Name: "loadgen.send_delay_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "loadgen.send_delay_ms_max", Unit: "ms", Better: "lower"},
	{Name: "loadgen.schedule_build_ms", Unit: "ms", Better: "lower"},

	{Name: "runtime.mallocs_per_flow", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_kb_per_flow", Unit: "KB", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}

// metric is one measured value as it appears in every output.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is the number of observations behind a percentile or
	// median; Percentile names the one a tail metric was taken at.
	Samples    int    `json:"samples,omitempty"`
	Percentile string `json:"percentile,omitempty"`
}
