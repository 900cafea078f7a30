package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"time"
)

// sendDelayLimitMs is the open-loop validity rule: a run whose send
// delay p99 exceeds it measured the generator, not the system.
const sendDelayLimitMs = 5.0

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runPlain is the untraced pass of one workload: set up (several times,
// the median is setup_s), pre-compute the solo references, run the
// measured phase, reconcile the servers' counters with what was sent.
func runPlain(m modelSpec, ckpt []byte, name string, seed uint64, seconds float64) (*runResult, error) {
	p, err := buildPlan(name, m, seed, seconds)
	if err != nil {
		return nil, err
	}
	res := &runResult{
		Workload: name, Seed: seed, Seconds: seconds, Model: m.Name, ScheduleDigest: p.digest,
		Phases: map[string]counts{}, Metrics: map[string]metric{}, Valid: true,
	}

	var st *stack
	var warm *phase
	setups := make([]float64, 0, p.setups)
	for k := 0; k < p.setups; k++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, fmt.Errorf("closing rehearsal stack: %w", err)
			}
			// Collect the rehearsal's garbage now, not inside the next
			// timed set-up.
			runtime.GC()
		}
		t0 := time.Now()
		st, warm, err = setUp(ckpt, p, m.Classes)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.Phases["warmup"] = phaseCounts(warm)

	if err := precomputeSolo(st.synth, p); err != nil {
		// The solo error is the one worth reporting.
		_ = st.close()
		return nil, err
	}
	// Start the measured phase from a collected heap, whatever set-up
	// and the solo runs left behind.
	runtime.GC()
	ph := runPhase(p, st.newSender, nil)
	res.Phases["measured"] = phaseCounts(ph)
	res.Failures = ph.failures
	res.CheckFailures = reconcile(st)
	if err := st.close(); err != nil {
		res.CheckFailures = append(res.CheckFailures, fmt.Sprintf("shutdown: %v", err))
	}

	for _, s := range ph.samples {
		switch s.cache {
		case "hit":
			res.CacheHits++
		case "miss":
			res.CacheMisses++
		}
	}
	endToEndMetrics(res, ph)
	res.Metrics["setup_s"] = metric{Value: median(setups), Unit: "s", Samples: len(setups)}
	res.Metrics["peak_rss_mb"] = metric{Value: peakRSSMB(), Unit: "MB"}
	attempted := res.Phases["measured"].Attempted + res.Phases["warmup"].Attempted
	res.Metrics["failed_share"] = metric{Value: float64(res.failed()) / float64(attempted), Unit: "share", Samples: attempted}
	if p.openLoop {
		if d := sendDelays(ph); d.p99 > sendDelayLimitMs {
			res.Valid = false
		}
	}
	return res, nil
}

// endToEndMetrics fills the latency, throughput and limit metrics of a
// measured phase.
func endToEndMetrics(res *runResult, ph *phase) {
	var all, light, heavy []float64
	flows, limited, met := 0, 0, 0
	for _, s := range ph.samples {
		if s.limited {
			limited++
			if s.met {
				met++
			}
		}
		if !s.ok {
			continue
		}
		flows += s.flows
		all = append(all, ms(s.lat))
		if s.kind == heavyKind {
			heavy = append(heavy, ms(s.lat))
		} else {
			light = append(light, ms(s.lat))
		}
	}
	if len(all) == 0 {
		return
	}
	// A workload with one kind of request reports it under both names,
	// so that every gated metric exists on every workload.
	if len(heavy) == 0 {
		heavy = light
	}
	if len(light) == 0 {
		light = heavy
	}
	res.Metrics["flows_per_s"] = metric{Value: float64(flows) / ph.wall.Seconds(), Unit: "flows/s", Samples: flows}
	put := func(prefix string, xs []float64, limit float64) {
		s := sortedCopy(xs)
		p50, _ := percentile(s, 50)
		res.Metrics[prefix+"_ms_p50"] = metric{Value: p50, Unit: "ms", Samples: len(s), Percentile: "p50"}
		tp, tv := tailPercentile(s, limit)
		res.Metrics[prefix+"_ms_tail"] = metric{Value: tv, Unit: "ms", Samples: len(s), Percentile: fmt.Sprintf("p%g", tp)}
	}
	put("req", all, 100)
	put("light", light, kindTailCap)
	put("heavy", heavy, kindTailCap)
	if limited > 0 {
		res.Metrics["slo_attainment"] = metric{Value: float64(met) / float64(limited), Unit: "share", Samples: limited}
	}
}

type delayStats struct{ p99, max float64 }

// sendDelays summarises how late the generator sent.
func sendDelays(ph *phase) delayStats {
	if len(ph.samples) == 0 {
		return delayStats{}
	}
	xs := make([]float64, len(ph.samples))
	for i, s := range ph.samples {
		xs[i] = ms(s.delay)
	}
	s := sortedCopy(xs)
	p99, _ := percentile(s, 99)
	return delayStats{p99: p99, max: s[len(s)-1]}
}

// scrape reads a tier's /metrics into a flat name → value map (nested
// per-class or per-upstream maps become "name/key").
func scrape(addr string) (map[string]float64, error) {
	c := newClient(addr)
	defer c.close()
	rep, err := c.do(http.MethodGet, "/metrics", "")
	if err != nil {
		return nil, err
	}
	if rep.status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", rep.status)
	}
	var raw map[string]any
	if err := json.Unmarshal(rep.body, &raw); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	out := map[string]float64{}
	for k, v := range raw {
		switch x := v.(type) {
		case float64:
			out[k] = x
		case map[string]any:
			for kk, vv := range x {
				if f, ok := vv.(float64); ok {
					out[k+"/"+kk] = f
				}
			}
		}
	}
	return out, nil
}

// reconcile is the counter half of the correctness gate: after a served
// workload every request the client saw answered must be accounted for
// by the servers, exactly. A handler bumps completed_total after it has
// written the reply, so the last one may still be a few instructions
// short of its counter when the client already holds the body: a
// mismatch is only real if it outlives a brief wait.
func reconcile(st *stack) []string {
	if st.addr == "" {
		return nil
	}
	var bad []string
	for wait := time.Millisecond; wait <= 512*time.Millisecond; wait *= 2 {
		if bad = reconcileOnce(st); len(bad) == 0 {
			break
		}
		time.Sleep(wait)
	}
	return bad
}

func reconcileOnce(st *stack) []string {
	var bad []string
	sent200 := map[string]int{}
	for _, c := range st.clients {
		sent200[c.addr] += c.ok200
	}
	eq := func(what string, got, want float64) {
		if math.Abs(got-want) > 0.5 {
			bad = append(bad, fmt.Sprintf("reconcile: %s = %.0f, want %.0f", what, got, want))
		}
	}
	upstream := 0.0
	if st.router != nil {
		rm, err := scrape(st.addr)
		if err != nil {
			return append(bad, fmt.Sprintf("reconcile: router %v", err))
		}
		eq("router hits+misses+bypass vs requests_total",
			rm["cache_hits_total"]+rm["cache_misses_total"]+rm["cache_bypass_total"], rm["requests_total"])
		eq("router completed_total vs client 200s", rm["completed_total"], float64(sent200[st.addr]))
		upstream = rm["cache_misses_total"] + rm["cache_bypass_total"]
	}
	completed := 0.0
	direct := 0
	for _, rep := range st.replicas {
		m, err := scrape(rep.addr)
		if err != nil {
			return append(bad, fmt.Sprintf("reconcile: replica %v", err))
		}
		eq("replica accepted vs completed+expired+failed",
			m["accepted_total"], m["completed_total"]+m["deadline_expired_total"]+m["failed_total"])
		completed += m["completed_total"]
		direct += sent200[rep.addr]
	}
	eq("replicas completed_total vs requests sent to them", completed, float64(direct)+upstream)
	return bad
}
