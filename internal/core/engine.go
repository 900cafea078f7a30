package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"trafficdiff/internal/diffusion"
	"trafficdiff/internal/stats"
	"trafficdiff/internal/tensor"
)

// DefaultMaxInFlight is the flow cap of a step loop when
// EngineConfig.MaxInFlight is unset, the default of the serving layer's
// cap too, and the most flows one piece of an offline call holds (see
// offlineEngine): one 16-lane tile of trunk rows.
const DefaultMaxInFlight = 16

// EngineConfig parameterizes a continuous-batching Engine. Zero values
// take the defaults noted on each field.
type EngineConfig struct {
	// MaxInFlight caps the flows simultaneously in each step loop's
	// denoising batch (default DefaultMaxInFlight). A request larger
	// than the cap is dealt across the loops in pieces of at most
	// MaxInFlight flows; each loop admits pieces from the head of its
	// FIFO while they fit under the cap, and an empty loop always admits
	// its head, so no request can starve.
	MaxInFlight int
	// PostWorkers is ignored: each request post-processes on the
	// goroutine that called Generate. The field remains only for
	// callers that still set it.
	PostWorkers int
	// MaxStepRows caps the rows advanced per denoiser forward in each
	// step loop (0 = all the loop's in-flight rows every step). When
	// set, each boundary steps the flows whose requests have the least
	// remaining work first (shortest remaining processing time), so a
	// small fresh request reaches its first result through cheap
	// forwards instead of paying for every bulk row in flight; bulk
	// requests drain oldest-first through the remaining capacity.
	// Output bytes are unaffected.
	MaxStepRows int
}

func (c EngineConfig) withDefaults() EngineConfig {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = DefaultMaxInFlight
	}
	return c
}

// EngineStats is a point-in-time snapshot of the engine's work
// counters. FlowSteps/Steps is the mean denoising-batch occupancy.
type EngineStats struct {
	// Steps counts batched denoiser step evaluations; FlowSteps counts
	// flow-rows summed over those steps.
	Steps, FlowSteps uint64
	// FlowsAdmitted/FlowsCompleted/FlowsRetired count flows entering,
	// finishing, and being dropped mid-generation (expired requests).
	FlowsAdmitted, FlowsCompleted, FlowsRetired uint64
	// RequestsExpired counts requests that hit their context deadline,
	// whether before or after admission.
	RequestsExpired uint64
}

// engineJob is one Generate call travelling through the engine, dealt
// to the loops as one or more pieces.
type engineJob struct {
	ctx     context.Context
	ci      int
	class   string
	cfg     Config // config snapshot taken at submission
	seeds   []uint64
	onAdmit func()

	// samples receives each flow's finished image, packed h*w per flow;
	// the scheduler's per-flow Out buffers alias into it.
	samples []float32

	mu       sync.Mutex
	pieces   int   // pieces not yet settled; guarded by mu
	admitted bool  // onAdmit has run; guarded by mu
	err      error // the first piece's failure; guarded by mu
	expired  bool  // err is the context's; guarded by mu

	// done receives the job's sampling outcome once its last piece
	// settles: nil when every sample is in, else the first failure. It
	// is buffered so the settling loop never blocks on a waiter that
	// already gave up.
	done chan error
}

// piece is one loop's share of a job: the flows of seeds[lo:hi]. Its
// loop owns ids and remaining.
type piece struct {
	job       *engineJob
	lo, hi    int
	ids       []diffusion.FlowID
	remaining int // flows not yet completed
}

func (p *piece) flows() int { return p.hi - p.lo }

// Engine is the continuous-batching generation engine: each of its
// step loops owns a diffusion.Scheduler and feeds it flows from
// concurrent Generate calls, so new requests join an in-flight
// denoising batch at the next timestep boundary instead of waiting for
// a closed batch to finish, and requests whose context expires retire
// their flows at the next boundary instead of running to completion as
// dead work.
//
// There is one step loop per usable CPU, min(GOMAXPROCS, NumCPU) read
// once at NewEngine. Generate deals a request to the loops in pieces of
// at most MaxInFlight flows, each piece to the loop with the fewest
// flows queued or denoising, and answers once, when the last piece
// finishes: a 1–2-row request runs on one loop, a bulk one on all of
// them. A loop steps under tensor.Serial while another loop has flows
// queued or denoising, so busy loops are data-parallel over the cores
// and never wake a kernel helper; a loop stepping alone shards its
// kernels over the pool as before. Loops share the stats counters. Once
// its samples are in, a request is post-processed on the goroutine that
// called Generate, so the engine runs no goroutine besides its step
// loops. With one loop this is the single-loop engine exactly.
//
// Every flow's bytes stay a pure function of its seed (the scheduler's
// bit-identity contract), so the result does not depend on which loop
// ran which piece or which other requests shared its forwards.
// Synthesizer.GenerateWithFlowSeeds is one Generate on a private
// engine.
//
// Expiry uses only ctx.Err() — the engine itself never reads a clock,
// keeping core free of wall-clock dependences (the walltime lint
// invariant); deadlines are the caller's policy.
type Engine struct {
	synth *Synthesizer
	cfg   EngineConfig
	loops []*stepLoop

	mu     sync.Mutex // serializes loop assignment against Close
	closed bool       // guarded by mu

	loopWG    sync.WaitGroup
	closeOnce sync.Once

	admitted, retired, reqExpired atomic.Uint64
}

// stepLoop is one step loop's queue and counters; the scheduler itself
// lives on the loop's goroutine.
type stepLoop struct {
	mu      sync.Mutex
	cond    *sync.Cond // signals the loop that work arrived or Close was called
	pending []*piece   // FIFO of assigned, not yet admitted pieces; guarded by mu
	closed  bool       // guarded by mu

	// load counts the flows queued on or denoising in this loop;
	// Generate deals each piece to the loop with the least.
	load atomic.Int64

	steps, flowSteps, completed atomic.Uint64 // the scheduler's counters
}

// NewEngine starts an engine over a fine-tuned synthesizer. Callers
// must eventually Close it. The synthesizer's model must not be
// retrained while the engine runs.
func NewEngine(synth *Synthesizer, cfg EngineConfig) (*Engine, error) {
	return newEngine(synth, cfg, usableCPUs())
}

// usableCPUs is the step-loop count: min(GOMAXPROCS, NumCPU).
func usableCPUs() int { return min(runtime.GOMAXPROCS(0), runtime.NumCPU()) }

// newEngine is NewEngine with an explicit step-loop count.
func newEngine(synth *Synthesizer, cfg EngineConfig, loops int) (*Engine, error) {
	if !synth.Trained() {
		return nil, fmt.Errorf("core: engine needs a fine-tuned synthesizer")
	}
	e := &Engine{
		synth: synth,
		cfg:   cfg.withDefaults(),
		loops: make([]*stepLoop, loops),
	}
	for i := range e.loops {
		l := &stepLoop{}
		l.cond = sync.NewCond(&l.mu)
		e.loops[i] = l
		e.loopWG.Add(1)
		go e.run(l)
	}
	return e, nil
}

// Classes returns the synthesizer's prompt vocabulary.
func (e *Engine) Classes() []string { return e.synth.Classes() }

// DDIMSteps reports the synthesizer's live DDIM budget; serving layers
// surface it for cache-key derivation.
func (e *Engine) DDIMSteps() int { return e.synth.DDIMSteps() }

// Stats returns a snapshot of the engine's work counters, summed over
// its step loops. Completions and retirements are read before
// admissions: every flow counted in the former was counted admitted
// first, so a snapshot never shows more flows finished than admitted.
func (e *Engine) Stats() EngineStats {
	var st EngineStats
	for _, l := range e.loops {
		st.Steps += l.steps.Load()
		st.FlowSteps += l.flowSteps.Load()
		st.FlowsCompleted += l.completed.Load()
	}
	st.FlowsRetired = e.retired.Load()
	st.RequestsExpired = e.reqExpired.Load()
	st.FlowsAdmitted = e.admitted.Load()
	return st
}

// Generate synthesizes one flow per seed, equivalent byte-for-byte to
// Synthesizer.GenerateWithFlowSeeds, but through the shared continuous
// denoising batches: the flows join their loops' batches at the next
// step boundary and other requests keep joining while these run.
// onAdmit, when non-nil, is called from a step loop at the moment the
// request's first flows enter a batch (serving layers measure
// admission wait with it; it must be fast). If ctx expires first,
// in-flight flows are retired at the next boundary and the context
// error is returned. Post-processing runs on the calling goroutine once
// every sample is in.
func (e *Engine) Generate(ctx context.Context, class string, flowSeeds []uint64, onAdmit func()) (*GenerateResult, error) {
	job, err := e.submit(ctx, class, flowSeeds, onAdmit)
	if err != nil {
		return nil, err
	}
	return job.wait(e.synth)
}

// wait blocks until the job's samples are in, then post-processes them
// on the caller. Each flow is post-processed from its seed, as every
// generation path does, so the result is a pure function of the seeds.
func (job *engineJob) wait(s *Synthesizer) (*GenerateResult, error) {
	if err := <-job.done; err != nil {
		return nil, err
	}
	return s.postprocess(job.ci, job.class, job.cfg, job.samples, job.seeds)
}

// submit validates a request and deals it to the loops; its answer
// arrives on the returned job's done channel.
func (e *Engine) submit(ctx context.Context, class string, flowSeeds []uint64, onAdmit func()) (*engineJob, error) {
	ci, err := e.synth.lookupClass(class)
	if err != nil {
		return nil, err
	}
	if len(flowSeeds) == 0 {
		return nil, fmt.Errorf("core: need at least one flow seed")
	}
	h, w := e.synth.ModelShape()
	job := &engineJob{
		ctx:     ctx,
		ci:      ci,
		class:   class,
		cfg:     e.synth.configSnapshot(),
		seeds:   append([]uint64(nil), flowSeeds...),
		onAdmit: onAdmit,
		samples: make([]float32, len(flowSeeds)*h*w),
		done:    make(chan error, 1),
	}
	if err := e.enqueue(job); err != nil {
		return nil, err
	}
	return job, nil
}

// enqueue deals a job into the fewest pieces of at most MaxInFlight
// flows, as even as they come, and appends each to the pending queue of
// the loop with the fewest flows queued or denoising (ties to the
// lowest index), counting the pieces already dealt; it wakes each loop
// it feeds and refuses once the engine has closed.
func (e *Engine) enqueue(job *engineJob) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return fmt.Errorf("core: engine is closed")
	}
	n := len(job.seeds)
	k := (n + e.cfg.MaxInFlight - 1) / e.cfg.MaxInFlight
	job.mu.Lock() // before any piece is visible to a loop
	job.pieces = k
	job.mu.Unlock()
	for i := 0; i < k; i++ {
		p := &piece{job: job, lo: i * n / k, hi: (i + 1) * n / k}
		l := e.loops[0]
		for _, c := range e.loops[1:] {
			if c.load.Load() < l.load.Load() {
				l = c
			}
		}
		l.load.Add(int64(p.flows()))
		l.mu.Lock()
		l.pending = append(l.pending, p)
		l.cond.Signal()
		l.mu.Unlock()
	}
	return nil
}

// Close drains the engine: no new Generate calls are accepted, already
// submitted requests run to completion (or expiry) on every loop, then
// the step loops exit. Safe to call more than once.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		e.mu.Lock()
		e.closed = true
		e.mu.Unlock()
		for _, l := range e.loops {
			l.mu.Lock()
			l.closed = true
			l.cond.Signal()
			l.mu.Unlock()
		}
	})
	e.loopWG.Wait()
}

// settle records that one of a job's pieces is done — finished when
// err is nil, stopped by err otherwise — and answers the job when it
// was the last, with the first failure recorded or nil. It never
// blocks. Whatever the piece changed in the stats counters is published
// before the call, so a waiter that observes its answer also observes
// every piece's completions and retirements.
func (e *Engine) settle(p *piece, err error) {
	job := p.job
	job.mu.Lock()
	if err != nil && job.err == nil {
		job.err, job.expired = err, job.ctx.Err() != nil
	}
	job.pieces--
	last, err, expired := job.pieces == 0, job.err, job.expired
	job.mu.Unlock()
	if !last {
		return
	}
	if expired {
		e.reqExpired.Add(1)
	}
	job.done <- err
}

// run is the only goroutine touching its loop's scheduler: it admits
// pending pieces under the flow cap, retires expired ones, steps the
// batch (serially while another loop has flows), and settles the
// pieces whose flows have all completed.
func (e *Engine) run(l *stepLoop) {
	defer e.loopWG.Done()
	eng := diffusion.NewScheduler(e.synth.adapted, e.synth.sched, nil)
	eng.SetStepRows(e.cfg.MaxStepRows)
	byID := map[diffusion.FlowID]*piece{} // active flow → its piece
	live := map[*piece]struct{}{}         // admitted, unfinished pieces
	inFlight := 0
	var finished []diffusion.FlowID
	step := func() { finished = eng.Step() }

	for {
		admit, ok := e.takePending(l, inFlight)
		if !ok {
			return
		}
		for _, p := range admit {
			if !e.admitPiece(eng, byID, p) {
				l.load.Add(-int64(p.flows()))
				continue
			}
			inFlight += p.flows()
			live[p] = struct{}{}
		}

		// Retire flows of requests that expired after admission: their
		// rows stop consuming forwards at this boundary.
		for p := range live {
			err := p.job.ctx.Err()
			if err == nil {
				continue
			}
			for _, id := range p.ids {
				eng.Retire(id) // no-op for the piece's already-completed flows
				delete(byID, id)
			}
			inFlight -= p.remaining
			l.load.Add(-int64(p.remaining))
			delete(live, p)
			// Count retired flows at the decision, not after the next
			// Step drops the rows, so a waiter that observes its error
			// also observes the retirement in Stats.
			e.retired.Add(uint64(p.remaining))
			e.settle(p, err)
		}

		if eng.Active() == 0 {
			continue
		}
		if e.othersBusy(l) {
			tensor.Serial(step)
		} else {
			step()
		}
		// Publish the counters before any hand-off, so a waiter that
		// observes its result also observes its completion in Stats.
		st := eng.Stats()
		l.steps.Store(st.Steps)
		l.flowSteps.Store(st.FlowSteps)
		l.completed.Store(st.Completed)
		inFlight -= len(finished)
		l.load.Add(-int64(len(finished)))
		for _, id := range finished {
			p := byID[id]
			delete(byID, id)
			p.remaining--
			if p.remaining == 0 {
				delete(live, p)
				e.settle(p, nil)
			}
		}
		// Yield the processor at every boundary. The loop is otherwise
		// pure compute and would hold its P for a full scheduler slice
		// (~10ms) spanning many boundaries; on a saturated single-CPU
		// host that slice becomes the floor on request latency, because
		// handler goroutines parked on the network can only run between
		// our yields. One Gosched per boundary caps their wait at one
		// forward instead.
		runtime.Gosched()
	}
}

// othersBusy reports whether a loop other than l has flows queued or
// denoising: l then steps serially, leaving the other cores to them.
func (e *Engine) othersBusy(l *stepLoop) bool {
	for _, c := range e.loops {
		if c != l && c.load.Load() > 0 {
			return true
		}
	}
	return false
}

// takePending blocks until the loop has work — queued pieces or
// in-flight flows — then drops every queued piece whose request has
// expired (settled here, never costing a step) and pops every
// admissible piece off the queue head. FIFO-stop admission: admit from
// the head while the loop's flow cap allows; no piece exceeds the cap,
// so an empty loop always admits its head, and no piece is starved by
// later smaller ones jumping it. Returns ok=false when the engine is
// closed and the loop fully drained.
func (e *Engine) takePending(l *stepLoop, inFlight int) (admit []*piece, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for !l.closed && len(l.pending) == 0 && inFlight == 0 {
		l.cond.Wait()
	}
	if l.closed && len(l.pending) == 0 && inFlight == 0 {
		return nil, false
	}
	kept := l.pending[:0]
	for _, p := range l.pending {
		if err := p.job.ctx.Err(); err != nil {
			l.load.Add(-int64(p.flows()))
			e.settle(p, err)
			continue
		}
		kept = append(kept, p)
	}
	clear(l.pending[len(kept):])
	l.pending = kept
	for len(l.pending) > 0 && inFlight+l.pending[0].flows() <= e.cfg.MaxInFlight {
		head := l.pending[0]
		l.pending[0] = nil
		l.pending = l.pending[1:]
		admit = append(admit, head)
		inFlight += head.flows()
	}
	return admit, true
}

// admitPiece admits every flow of one piece into the scheduler, with
// the same per-flow spec for every piece of a request: RNG rooted at
// the flow seed, the class's ControlNet conditioning when enabled, the
// config snapshot's guidance and DDIM budget, and the request's size
// as the scheduling hint. The request's first admitted piece runs
// onAdmit. Reports whether the piece was admitted; on an admission
// error its flows are withdrawn and the piece settles with the error,
// which the request answers with once its other pieces settle (every
// piece has the same spec, so they meet the same error).
func (e *Engine) admitPiece(eng *diffusion.Scheduler, byID map[diffusion.FlowID]*piece, p *piece) bool {
	job := p.job
	h, w := e.synth.ModelShape()
	d := h * w
	control := e.synth.control(job.ci, job.cfg)
	p.ids = make([]diffusion.FlowID, 0, p.flows())
	for i := p.lo; i < p.hi; i++ {
		id, err := eng.Admit(diffusion.FlowSpec{
			Class:         job.ci,
			GuidanceScale: job.cfg.GuidanceScale,
			DDIMSteps:     job.cfg.DDIMSteps,
			RNG:           stats.NewRNG(job.seeds[i]),
			Control:       control,
			Out:           job.samples[i*d : (i+1)*d],
			JobRows:       len(job.seeds),
		})
		if err != nil {
			for _, prev := range p.ids {
				eng.Retire(prev)
				delete(byID, prev)
			}
			e.settle(p, err)
			return false
		}
		p.ids = append(p.ids, id)
		byID[id] = p
	}
	p.remaining = p.flows()
	e.admitted.Add(uint64(p.flows()))
	job.mu.Lock()
	first := !job.admitted
	job.admitted = true
	job.mu.Unlock()
	if first && job.onAdmit != nil {
		job.onAdmit()
	}
	return true
}
