package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"trafficdiff/internal/core"
)

// traceShare is the share of a workload's input the traced pass
// replays.
const traceShare = 0.25

// workload replays the first traceShare of the workload's input three
// times on fresh stacks: plain and traced through the real tiers (their
// difference is the tracing overhead; the traced pass also yields the
// servers' counters and the runtime's allocation deltas), then straight
// into a core.Engine for admission waits and batch occupancy.
func (lb *layerBench) workload(ckpt []byte, p *plan, res *runResult) error {
	sl := p.slice(traceShare)
	pass := func(tr *tracer, after func(st *stack)) (*phase, error) {
		st, _, err := setUp(ckpt, sl, lb.m.Classes)
		if err != nil {
			return nil, err
		}
		ph := runPhase(sl, st.newSender, tr)
		if after != nil {
			after(st)
		}
		return ph, st.close()
	}
	plain, err := pass(nil, nil)
	if err != nil {
		return err
	}
	res.Phases["plain"] = phaseCounts(plain)

	runtime.GC()
	var before, after runtime.MemStats
	var scrapeErr error
	runtime.ReadMemStats(&before)
	traced, err := pass(lb.tr, func(st *stack) {
		runtime.ReadMemStats(&after)
		scrapeErr = lb.counters(st)
	})
	if err != nil {
		return err
	}
	if scrapeErr != nil {
		return scrapeErr
	}
	res.Phases["traced"] = phaseCounts(traced)
	// "measured" is what the driver's attempted/failed count on a
	// traced run: both replays.
	a1, f1 := plain.counts()
	a2, f2 := traced.counts()
	res.Phases["measured"] = counts{Attempted: a1 + a2, Succeeded: a1 + a2 - f1 - f2, Failed: f1 + f2}
	res.Failures = append(plain.failures, traced.failures...)

	// Tracing overhead is judged on total request time: a median would
	// sit on router_repeat's 40 us hits, where it is all noise.
	flows := 0
	var plainSum, tracedSum time.Duration
	for _, s := range traced.samples {
		flows += s.flows
		tracedSum += s.lat
	}
	for _, s := range plain.samples {
		plainSum += s.lat
	}
	// The deltas include the traced pass's set-up (a checkpoint load
	// per replica); it is the same on both sides of any comparison.
	lb.put("runtime.mallocs_per_flow", float64(after.Mallocs-before.Mallocs)/float64(flows))
	lb.put("runtime.alloc_kb_per_flow", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(flows))
	lb.put("runtime.gc_cycles", float64(after.NumGC-before.NumGC))
	lb.put("runtime.gc_pause_ms_total", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	if plainSum > 0 {
		lb.put("trace.overhead_share", float64(tracedSum-plainSum)/float64(plainSum))
	}
	if p.openLoop {
		d := sendDelays(traced)
		lb.put("loadgen.send_delay_ms_p99", d.p99)
		lb.put("loadgen.send_delay_ms_max", d.max)
		res.Valid = d.p99 <= sendDelayLimitMs
	}
	if p.kind == stackOffline {
		return nil // no engine in the offline path: its rows stay 0
	}
	return lb.engineReplay(ckpt, sl, res)
}

// counters reads the serving tiers' own counters after the traced pass.
func (lb *layerBench) counters(st *stack) error {
	var waitSum, waitN, rejected, expired, completed float64
	for _, rep := range st.replicas {
		m, err := scrape(rep.addr)
		if err != nil {
			return err
		}
		for k, v := range m {
			if strings.HasPrefix(k, "admission_wait_ms_sum/") {
				waitSum += v
			}
			if strings.HasPrefix(k, "admission_wait_ms_count/") {
				waitN += v
			}
		}
		rejected += m["rejected_total"]
		expired += m["deadline_expired_total"]
		completed += m["completed_total"]
	}
	lb.put("serve.rejected_429", rejected)
	lb.put("serve.expired_504", expired)
	lb.put("serve.completed", completed)
	if waitN > 0 {
		lb.put("serve.admission_wait_ms_mean", waitSum/waitN)
	}
	if st.router == nil {
		return nil
	}
	m, err := scrape(st.addr)
	if err != nil {
		return err
	}
	if looked := m["cache_hits_total"] + m["cache_misses_total"]; looked > 0 {
		lb.put("cluster.cache_hit_share", m["cache_hits_total"]/looked)
	}
	lb.put("cluster.cache_evictions", m["cache_evictions_total"])
	lb.put("cluster.retries", m["retries_total"])
	lo, hi := -1.0, 0.0
	for k, v := range m {
		if strings.HasPrefix(k, "upstream_requests_total/") {
			if lo < 0 || v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if lo > 0 {
		lb.put("cluster.replica_imbalance", hi/lo)
	}
	return nil
}

// engineReplay sends the slice straight into a core.Engine configured
// as serve.New configures it.
func (lb *layerBench) engineReplay(ckpt []byte, sl *plan, res *runResult) error {
	synth, err := core.Load(bytes.NewReader(ckpt))
	if err != nil {
		return err
	}
	synth.SetDDIMSteps(sl.steps)
	eng, err := core.NewEngine(synth, engineDefaults)
	if err != nil {
		return err
	}
	defer eng.Close()
	direct := sl.slice(1) // a copy: there is no router in front to give cache verdicts
	for _, s := range direct.streams {
		for i := range s {
			s[i].expectCache = ""
		}
	}
	es := &engineSender{eng: eng}
	ph := runPhase(direct, func(int) sender { return es }, nil)
	res.Phases["engine_replay"] = phaseCounts(ph)
	res.Failures = append(res.Failures, ph.failures...)
	if _, failed := ph.counts(); failed > 0 {
		res.CheckFailures = append(res.CheckFailures, fmt.Sprintf("engine replay: %d requests failed", failed))
	}
	if xs := es.waitsMs(); len(xs) > 0 {
		s := sortedCopy(xs)
		p50, _ := percentile(s, 50)
		p95, _ := percentile(s, 95)
		lb.out["engine.admit_wait_ms_p50"] = metric{Value: p50, Unit: "ms", Samples: len(s)}
		lb.out["engine.admit_wait_ms_p95"] = metric{Value: p95, Unit: "ms", Samples: len(s)}
	}
	stt := eng.Stats()
	if stt.Steps > 0 {
		lb.put("engine.batch_occupancy", float64(stt.FlowSteps)/float64(stt.Steps))
	}
	if stt.FlowsCompleted > 0 {
		lb.put("engine.rows_per_flow", float64(stt.FlowSteps)/float64(stt.FlowsCompleted))
	}
	if stt.FlowsAdmitted > 0 {
		lb.put("engine.retired_share", float64(stt.FlowsRetired)/float64(stt.FlowsAdmitted))
	}
	return nil
}
