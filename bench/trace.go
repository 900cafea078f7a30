package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Spans of one replayed request share Request; Parent
// is the span that caused it (0 = none).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"` // the layer
	Detail  string `json:"detail,omitempty"`
	Request int    `json:"request"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// layerParent is the request path: which layer's call causes a call
// into each layer.
var layerParent = map[string]string{
	"tensor":      "denoiser",
	"denoiser":    "scheduler",
	"scheduler":   "core",
	"postprocess": "core",
	"core":        "engine",
	"engine":      "serve",
	"encode":      "serve",
	"serve":       "cluster",
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced pass runs the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// last is the latest span id per layer and request, for parents.
	last map[string]map[int]int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), last: map[string]map[int]int{}}
}

// open adds a span whose times are still to come and returns its id.
// parent < 0 means: the enclosing layer's latest span for this request.
func (t *tracer) open(layer, detail string, request, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent < 0 {
		parent = t.last[layerParent[layer]][request]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: layer, Detail: detail, Request: request})
	if t.last[layer] == nil {
		t.last[layer] = map[int]int{}
	}
	t.last[layer][request] = id
	return id
}

// close sets a span's times.
func (t *tracer) close(id int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].StartNs, t.spans[id-1].EndNs = start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()
}

// record stores a span that the caller timed itself.
func (t *tracer) record(layer, detail string, request, parent int, start, end time.Time) {
	t.close(t.open(layer, detail, request, parent), start, end)
}

// call times fn as a call into layer on behalf of request. The span is
// opened before fn runs and its id handed to fn, so that fn can record
// spans under it.
func (t *tracer) call(layer, detail string, request int, fn func(within int)) time.Duration {
	id := t.open(layer, detail, request, -1)
	start := time.Now()
	fn(id)
	end := time.Now()
	t.close(id, start, end)
	return end.Sub(start)
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tableRow is one layer's self time for one request.
type tableRow struct {
	Layer string  `json:"layer"`
	Us    float64 `json:"us"`
	Share float64 `json:"share"`
}

// layerTotal is the full time of one layer's calls for one request,
// everything below it included; Inner names the layers it encloses.
type layerTotal struct {
	Layer string
	Us    float64
	Inner []string
}

// layerTable applies the tracing rule "self time = span − the part its
// child spans cover" to per-request totals: each row is a layer's total
// minus the totals of the layers it encloses. Every subtraction removes
// exactly what another row adds, so the rows sum to the totals that
// nothing encloses — the outermost measured latency.
func layerTable(totals []layerTotal) []tableRow {
	full := map[string]float64{}
	for _, t := range totals {
		full[t.Layer] = t.Us
	}
	rows := make([]tableRow, 0, len(totals))
	var sum float64
	for _, t := range totals {
		self := t.Us
		for _, in := range t.Inner {
			self -= full[in]
		}
		rows = append(rows, tableRow{Layer: t.Layer, Us: self})
		sum += self
	}
	for i := range rows {
		if sum > 0 {
			rows[i].Share = rows[i].Us / sum
		}
	}
	return rows
}
