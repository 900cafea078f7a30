package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"trafficdiff/internal/core"
)

// sender carries one stream's requests to the program under test. Each
// stream owns its sender (one connection per stream).
type sender interface {
	send(r *request) (*reply, error)
}

// httpSender is a stream's persistent connection to traced or
// tracerouter.
type httpSender struct{ c *client }

func (s httpSender) send(r *request) (*reply, error) { return s.c.generate(r.genRequest) }

// offlineSender calls the Synthesizer directly and encodes the result
// in memory, the offline_bulk request. It fills the two headers
// checkReply reads so that one gate serves every workload.
type offlineSender struct{ synth *core.Synthesizer }

func (s offlineSender) send(r *request) (*reply, error) {
	res, err := s.synth.GenerateWithFlowSeeds(r.Class, core.DeriveFlowSeeds(r.Seed, r.Count))
	if err != nil {
		return nil, err
	}
	return resultReply(r, res)
}

func resultReply(r *request, res *core.GenerateResult) (*reply, error) {
	body, err := encodeResult(r.Format, res)
	if err != nil {
		return nil, err
	}
	rep := &reply{status: http.StatusOK, header: http.Header{}, body: body, res: res}
	rep.header.Set("Content-Length", strconv.Itoa(len(body)))
	rep.header.Set("X-Traced-Flows", strconv.Itoa(len(res.Flows)))
	return rep, nil
}

// sample is one request's outcome.
type sample struct {
	kind int
	ok   bool
	// limited says the stream has a latency limit; met that the request
	// succeeded within it.
	limited, met bool
	flows        int
	// lat is reply time minus due time (open loop) or minus send time.
	lat time.Duration
	// delay is how late the request left after it could have: send time
	// minus the later of its due time and the previous reply.
	delay time.Duration
	cache string
}

// phase is the outcome of one pass over a plan.
type phase struct {
	samples  []sample
	wall     time.Duration
	failures []string
}

func (ph *phase) counts() (attempted, failed int) {
	for _, s := range ph.samples {
		if !s.ok {
			failed++
		}
	}
	return len(ph.samples), failed
}

// maxFailureNotes bounds the failure messages a run keeps; the counts
// are always exact.
const maxFailureNotes = 8

// runPhase sends every stream's requests on its own goroutine: a closed
// loop sends the next request when the reply arrives; an open loop
// sends it when it is due or when the previous reply arrived, whichever
// is later, and times it from when it was due. tr may be nil.
func runPhase(p *plan, newSender func(stream int) sender, tr *tracer) *phase {
	type streamOut struct {
		samples  []sample
		failures []string
	}
	outs := make([]streamOut, len(p.streams))
	senders := make([]sender, len(p.streams))
	for i := range p.streams {
		senders[i] = newSender(i)
	}
	var wg sync.WaitGroup
	var stop atomic.Bool
	// A short lead lets every stream goroutine reach its first wait
	// before the first request is due.
	start := time.Now().Add(2 * time.Millisecond)
	for si := range p.streams {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			out := &outs[si]
			out.samples = make([]sample, 0, len(p.streams[si]))
			// firstBody remembers each repeated key's first reply so
			// that every later hit can be held against it.
			firstBody := map[uint64][sha256.Size]byte{}
			prevDone := start
			for ri := range p.streams[si] {
				if stop.Load() {
					return
				}
				r := &p.streams[si][ri]
				ready := prevDone
				if p.openLoop {
					if due := start.Add(r.due); due.After(ready) {
						ready = due
					}
				}
				if d := time.Until(ready); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				rep, err := senders[si].send(r)
				done := time.Now()
				tr.record("request", p.name, si<<32|ri, 0, sent, done)
				prevDone = done

				s := sample{kind: r.kind, flows: r.Count, limited: r.limitMs > 0, delay: sent.Sub(ready), lat: done.Sub(sent)}
				if p.openLoop {
					s.lat = done.Sub(start.Add(r.due))
				}
				if err == nil {
					s.cache = rep.header.Get("X-Cache")
					err = verifyReply(r, rep, firstBody)
				}
				if err != nil {
					if len(out.failures) < maxFailureNotes {
						out.failures = append(out.failures, fmt.Sprintf("stream %d request %d: %v", si, ri, err))
					}
				} else {
					s.ok = true
					s.met = s.limited && ms(s.lat) <= r.limitMs
				}
				out.samples = append(out.samples, s)
			}
			if p.together {
				stop.Store(true)
			}
		}(si)
	}
	wg.Wait()
	ph := &phase{wall: time.Since(start)}
	for _, o := range outs {
		ph.samples = append(ph.samples, o.samples...)
		ph.failures = append(ph.failures, o.failures...)
	}
	return ph
}

// verifyReply is the correctness gate for one reply: framing and
// parse, the expected cache verdict, byte identity with the solo run,
// and hit bytes equal to the first reply for the same key.
func verifyReply(r *request, rep *reply, firstBody map[uint64][sha256.Size]byte) error {
	if err := checkReply(r.genRequest, rep); err != nil {
		return err
	}
	if r.expectCache != "" {
		if got := rep.header.Get("X-Cache"); got != r.expectCache {
			return fmt.Errorf("X-Cache %q, want %q", got, r.expectCache)
		}
		sum := sha256.Sum256(rep.body)
		if first, seen := firstBody[r.Seed]; !seen {
			firstBody[r.Seed] = sum
		} else if first != sum {
			return fmt.Errorf("cache hit bytes differ from the miss for seed %d", r.Seed)
		}
	}
	if r.solo != nil {
		got := rep.body
		if r.soloOne {
			// offline_bulk's check covers one flow of the call:
			// re-encode it alone, as the solo run was.
			var err error
			got, err = encodeResult(r.Format, &core.GenerateResult{
				Flows: rep.res.Flows[r.soloFlow : r.soloFlow+1], Matrices: rep.res.Matrices[r.soloFlow : r.soloFlow+1],
			})
			if err != nil {
				return err
			}
		}
		if !bytes.Equal(got, r.solo) {
			return fmt.Errorf("reply under load differs from the solo run (seed %d)", r.Seed)
		}
	}
	return nil
}

// precomputeSolo picks soloChecks requests spread evenly over the plan
// and generates each alone on synth with the same encode; the measured
// pass must reproduce the bytes under load. An offline_bulk call is too
// large to repeat solo, so one flow of it is (a flow is a pure function
// of its own seed, whatever batch it ran in).
func precomputeSolo(synth *core.Synthesizer, p *plan) error {
	total := p.requests()
	picks := soloChecks
	if picks > total {
		picks = total
	}
	for k := 0; k < picks; k++ {
		idx := k * total / picks
		si := 0
		for idx >= len(p.streams[si]) {
			idx -= len(p.streams[si])
			si++
		}
		r := &p.streams[si][idx]
		seeds := core.DeriveFlowSeeds(r.Seed, r.Count)
		if p.kind == stackOffline {
			r.soloOne, r.soloFlow = true, k*r.Count/picks
			seeds = seeds[r.soloFlow : r.soloFlow+1]
		}
		res, err := synth.GenerateWithFlowSeeds(r.Class, seeds)
		if err != nil {
			return fmt.Errorf("solo run: %w", err)
		}
		if r.solo, err = encodeResult(r.Format, res); err != nil {
			return fmt.Errorf("solo run: %w", err)
		}
	}
	return nil
}

// warmRequests is the warm-up: one request per class and format on the
// served workloads; one call of the measured shape offline, where a
// per-class round would take four seconds and warms nothing more (the
// tape arena is sized by the batch, not the class).
func warmRequests(p *plan, classes []string) []request {
	const warmSeedBase = 0xbe7c_0000_0000_0000
	if p.kind == stackOffline {
		first := p.streams[0][0]
		return []request{{genRequest: genRequest{Class: first.Class, Count: first.Count, Seed: warmSeedBase, Format: "pcap"}}}
	}
	var out []request
	for _, class := range classes {
		for _, format := range []string{"pcap", "csv"} {
			r := request{genRequest: genRequest{Class: class, Count: 1, Seed: warmSeedBase + uint64(len(out)), Format: format}}
			if p.kind == stackRouter {
				r.expectCache = "miss"
			}
			out = append(out, r)
		}
	}
	return out
}

// setUp builds the workload's stack and warms it up: everything between
// process start and the first measured request that a user of the
// system would also wait for.
func setUp(ckpt []byte, p *plan, classes []string) (*stack, *phase, error) {
	st, err := buildStack(ckpt, p.kind, p.steps)
	if err != nil {
		return nil, nil, err
	}
	warm := &plan{name: p.name, kind: p.kind, streams: [][]request{warmRequests(p, classes)}}
	ph := runPhase(warm, st.newSender, nil)
	if len(ph.failures) > 0 {
		// The close error would only repeat that the stack is broken.
		_ = st.close()
		return nil, nil, fmt.Errorf("warm-up: %s", ph.failures[0])
	}
	return st, ph, nil
}

// newSender gives stream i its own way into the stack.
func (st *stack) newSender(int) sender {
	if st.addr == "" {
		return offlineSender{st.synth}
	}
	return httpSender{st.dial(st.addr)}
}

// engineSender replays requests straight into a core.Engine, recording
// each request's admission wait through the onAdmit hook. One sender
// serves every stream.
type engineSender struct {
	eng   *core.Engine
	mu    sync.Mutex
	waits []time.Duration // guarded by mu
}

func (s *engineSender) send(r *request) (*reply, error) {
	t0 := time.Now()
	var wait time.Duration
	res, err := s.eng.Generate(context.Background(), r.Class, core.DeriveFlowSeeds(r.Seed, r.Count),
		func() { wait = time.Since(t0) })
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.waits = append(s.waits, wait)
	s.mu.Unlock()
	return resultReply(r, res)
}

// waitsMs returns the admission waits recorded so far, in milliseconds.
func (s *engineSender) waitsMs() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	xs := make([]float64, len(s.waits))
	for i, d := range s.waits {
		xs[i] = ms(d)
	}
	return xs
}
