package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"trafficdiff/internal/diffusion"
	"trafficdiff/internal/stats"
)

// EngineConfig parameterizes a continuous-batching Engine. Zero values
// take the defaults noted on each field.
type EngineConfig struct {
	// MaxInFlight caps the flows simultaneously in each step loop's
	// denoising batch (default 16). Requests are admitted from the head
	// of the loop's FIFO while they fit under the cap; a request larger
	// than the whole cap still runs, alone in an otherwise empty loop,
	// so no request can starve.
	MaxInFlight int
	// PostWorkers is the number of goroutines running per-request
	// post-processing (upscale, quantize, projection, back-transform)
	// off the step loops, shared by all of them (default 2).
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
		c.MaxInFlight = 16
	}
	if c.PostWorkers <= 0 {
		c.PostWorkers = 2
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

// engineResult is what a job's waiter receives.
type engineResult struct {
	res *GenerateResult
	err error
}

// engineJob is one Generate call travelling through the engine.
type engineJob struct {
	ctx     context.Context
	ci      int
	class   string
	cfg     Config // config snapshot taken at submission
	seeds   []uint64
	onAdmit func()

	// samples receives each flow's finished image, packed h*w per flow;
	// the scheduler's per-flow Out buffers alias into it.
	samples   []float32
	ids       []diffusion.FlowID
	remaining int // flows not yet completed (loop-goroutine state)

	// done is buffered so the loop never blocks on a waiter that
	// already gave up.
	done chan engineResult
}

// Engine is the continuous-batching generation engine: each of its
// step loops owns a diffusion.Scheduler and feeds it flows from
// concurrent Generate calls, so new requests join an in-flight
// denoising batch at the next timestep boundary instead of waiting for
// a closed batch to finish, and requests whose context expires retire
// their flows at the next boundary instead of running to completion as
// dead work.
//
// There is one step loop per usable CPU, min(GOMAXPROCS, NumCPU) read
// once at NewEngine, and each Generate goes to the loop with the
// fewest flows queued or denoising. A 1–2-row step is a weight stream
// that gains little from sharding its GEMMs over both cores, so a
// second core does more running a second request's step beside the
// first. Loops share the smallest-job-first post queue, its workers
// and the stats counters; the tensor pool's rule (the first dispatcher
// shards, a concurrent one runs on its own goroutine) keeps their
// kernels off each other's helpers. With one loop this is the
// single-loop engine exactly.
//
// Every flow's bytes stay a pure function of its seed (the scheduler's
// bit-identity contract), so Generate returns exactly what
// Synthesizer.GenerateWithFlowSeeds would for the same seeds, no
// matter which loop ran it or which other requests shared its
// forwards.
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

	postQ     *postQueue
	loopWG    sync.WaitGroup
	postWG    sync.WaitGroup
	closeOnce sync.Once

	admitted, retired, reqExpired atomic.Uint64
}

// stepLoop is one step loop's queue and counters; the scheduler itself
// lives on the loop's goroutine.
type stepLoop struct {
	mu      sync.Mutex
	cond    *sync.Cond   // signals the loop that work arrived or Close was called
	pending []*engineJob // FIFO of assigned, not yet admitted jobs; guarded by mu
	closed  bool         // guarded by mu

	// load counts the flows queued on or denoising in this loop;
	// Generate assigns each job to the loop with the least.
	load atomic.Int64

	steps, flowSteps, completed atomic.Uint64 // the scheduler's counters
}

// NewEngine starts an engine over a fine-tuned synthesizer. Callers
// must eventually Close it. The synthesizer's model must not be
// retrained while the engine runs.
func NewEngine(synth *Synthesizer, cfg EngineConfig) (*Engine, error) {
	return newEngine(synth, cfg, min(runtime.GOMAXPROCS(0), runtime.NumCPU()))
}

// newEngine is NewEngine with an explicit step-loop count.
func newEngine(synth *Synthesizer, cfg EngineConfig, loops int) (*Engine, error) {
	if !synth.Trained() {
		return nil, fmt.Errorf("core: engine needs a fine-tuned synthesizer")
	}
	e := &Engine{
		synth: synth,
		cfg:   cfg.withDefaults(),
		loops: make([]*stepLoop, loops),
		postQ: newPostQueue(16),
	}
	for i := range e.loops {
		l := &stepLoop{}
		l.cond = sync.NewCond(&l.mu)
		e.loops[i] = l
		e.loopWG.Add(1)
		go e.run(l)
	}
	for i := 0; i < e.cfg.PostWorkers; i++ {
		e.postWG.Add(1)
		go e.postWorker()
	}
	return e, nil
}

// Classes returns the synthesizer's prompt vocabulary.
func (e *Engine) Classes() []string { return e.synth.Classes() }

// DDIMSteps reports the synthesizer's live DDIM budget; serving layers
// surface it for cache-key derivation.
func (e *Engine) DDIMSteps() int { return e.synth.DDIMSteps() }

// Stats returns a snapshot of the engine's work counters, summed over
// its step loops.
func (e *Engine) Stats() EngineStats {
	st := EngineStats{
		FlowsAdmitted:   e.admitted.Load(),
		FlowsRetired:    e.retired.Load(),
		RequestsExpired: e.reqExpired.Load(),
	}
	for _, l := range e.loops {
		st.Steps += l.steps.Load()
		st.FlowSteps += l.flowSteps.Load()
		st.FlowsCompleted += l.completed.Load()
	}
	return st
}

// Generate synthesizes one flow per seed, equivalent byte-for-byte to
// Synthesizer.GenerateWithFlowSeeds, but through a shared continuous
// denoising batch: the flows join their loop's batch at the next step
// boundary and other requests keep joining while these run. onAdmit,
// when non-nil, is called from the step loop at the moment the flows
// enter the batch (serving layers measure admission wait with it; it
// must be fast). If ctx expires first, in-flight flows are retired at
// the next boundary and the context error is returned.
func (e *Engine) Generate(ctx context.Context, class string, flowSeeds []uint64, onAdmit func()) (*GenerateResult, error) {
	ci, err := e.synth.lookupClass(class)
	if err != nil {
		return nil, err
	}
	if len(flowSeeds) == 0 {
		return nil, fmt.Errorf("core: need at least one flow seed")
	}
	h, w := e.synth.ModelShape()
	job := &engineJob{
		ctx:       ctx,
		ci:        ci,
		class:     class,
		cfg:       e.synth.configSnapshot(),
		seeds:     append([]uint64(nil), flowSeeds...),
		onAdmit:   onAdmit,
		samples:   make([]float32, len(flowSeeds)*h*w),
		remaining: len(flowSeeds),
		done:      make(chan engineResult, 1),
	}
	if err := e.enqueue(job); err != nil {
		return nil, err
	}
	out := <-job.done
	return out.res, out.err
}

// enqueue appends a job to the pending queue of the loop with the
// fewest flows queued or denoising (ties to the lowest index) and
// wakes that loop, refusing once the engine has closed.
func (e *Engine) enqueue(job *engineJob) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return fmt.Errorf("core: engine is closed")
	}
	l := e.loops[0]
	for _, c := range e.loops[1:] {
		if c.load.Load() < l.load.Load() {
			l = c
		}
	}
	l.load.Add(int64(len(job.seeds)))
	l.mu.Lock()
	l.pending = append(l.pending, job)
	l.cond.Signal()
	l.mu.Unlock()
	return nil
}

// Close drains the engine: no new Generate calls are accepted, already
// submitted requests run to completion (or expiry) on every loop, then
// the step loops and post workers exit. Safe to call more than once.
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
	e.postQ.close() // every push came from a loop, and they have all returned
	e.postWG.Wait()
}

// run is the only goroutine touching its loop's scheduler: it admits
// pending jobs under the flow cap, retires expired ones, steps the
// batch, and hands completed jobs to the post workers.
func (e *Engine) run(l *stepLoop) {
	defer e.loopWG.Done()
	eng := diffusion.NewScheduler(e.synth.adapted, e.synth.sched, nil)
	eng.SetStepRows(e.cfg.MaxStepRows)
	byID := map[diffusion.FlowID]*engineJob{} // active flow → its job
	live := map[*engineJob]struct{}{}         // admitted, unfinished jobs
	inFlight := 0

	for {
		admit, ok := e.takePending(l, inFlight)
		if !ok {
			return
		}
		for _, job := range admit {
			inFlight += len(job.seeds)
			if !e.admitJob(eng, byID, job) {
				inFlight -= len(job.seeds)
				l.load.Add(-int64(len(job.seeds)))
				continue
			}
			live[job] = struct{}{}
			if job.onAdmit != nil {
				job.onAdmit()
			}
		}

		// Retire flows of requests that expired after admission: their
		// rows stop consuming forwards at this boundary.
		for job := range live {
			if job.ctx.Err() == nil {
				continue
			}
			for _, id := range job.ids {
				eng.Retire(id) // no-op for the job's already-completed flows
				delete(byID, id)
			}
			inFlight -= job.remaining
			l.load.Add(-int64(job.remaining))
			delete(live, job)
			// Count retired flows at the decision, not after the next
			// Step drops the rows, so a waiter that observes its error
			// also observes the retirement in Stats.
			e.retired.Add(uint64(job.remaining))
			e.reqExpired.Add(1)
			job.done <- engineResult{err: job.ctx.Err()}
		}

		if eng.Active() == 0 {
			continue
		}
		finished := eng.Step()
		// Publish the counters before any hand-off, so a waiter that
		// observes its result also observes its completion in Stats.
		st := eng.Stats()
		l.steps.Store(st.Steps)
		l.flowSteps.Store(st.FlowSteps)
		l.completed.Store(st.Completed)
		for _, id := range finished {
			job := byID[id]
			delete(byID, id)
			job.remaining--
			if job.remaining == 0 {
				delete(live, job)
				// May block when post-processing falls behind — natural
				// backpressure on the step loop. The queue hands workers
				// the smallest job first, so a probe's cheap post never
				// queues behind bulk work.
				e.postQ.push(job)
			}
		}
		inFlight -= len(finished)
		l.load.Add(-int64(len(finished)))
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

// takePending blocks until the loop has work — queued jobs or
// in-flight flows — then pops every admissible job off its queue head.
// FIFO-stop admission: admit from the head while the loop's flow cap
// allows. The head is always admitted into an empty loop even when it
// alone exceeds MaxInFlight, so oversized requests run instead of
// deadlocking, and no request can be starved by later smaller ones
// jumping it. Heads that expired while queued are answered here and
// never cost a step. Returns ok=false when the engine is closed and
// the loop fully drained.
func (e *Engine) takePending(l *stepLoop, inFlight int) (admit []*engineJob, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for !l.closed && len(l.pending) == 0 && inFlight == 0 {
		l.cond.Wait()
	}
	if l.closed && len(l.pending) == 0 && inFlight == 0 {
		return nil, false
	}
	for len(l.pending) > 0 {
		head := l.pending[0]
		if head.ctx.Err() != nil {
			l.popPendingLocked()
			l.load.Add(-int64(len(head.seeds)))
			e.reqExpired.Add(1)
			head.done <- engineResult{err: head.ctx.Err()}
			continue
		}
		if inFlight > 0 && inFlight+len(head.seeds) > e.cfg.MaxInFlight {
			break
		}
		l.popPendingLocked()
		admit = append(admit, head)
		inFlight += len(head.seeds)
	}
	return admit, true
}

// popPendingLocked removes the queue head. Caller holds mu.
//
//tracelint:holds mu
func (l *stepLoop) popPendingLocked() {
	l.pending[0] = nil
	l.pending = l.pending[1:]
}

// admitJob admits every flow of one job into the scheduler, with the
// same per-flow spec GenerateWithFlowSeeds produces: RNG rooted at the
// flow seed, the class's ControlNet conditioning when enabled, and the
// config snapshot's guidance and DDIM budget. Reports whether the job
// was admitted; on an admission error the job's flows are withdrawn
// and its waiter gets the error.
func (e *Engine) admitJob(eng *diffusion.Scheduler, byID map[diffusion.FlowID]*engineJob, job *engineJob) bool {
	h, w := e.synth.ModelShape()
	d := h * w
	control := e.synth.control(job.ci, job.cfg)
	job.ids = make([]diffusion.FlowID, len(job.seeds))
	for i, seed := range job.seeds {
		id, err := eng.Admit(diffusion.FlowSpec{
			Class:         job.ci,
			GuidanceScale: job.cfg.GuidanceScale,
			DDIMSteps:     job.cfg.DDIMSteps,
			RNG:           stats.NewRNG(seed),
			Control:       control,
			Out:           job.samples[i*d : (i+1)*d],
			JobRows:       len(job.seeds),
		})
		if err != nil {
			for _, prev := range job.ids[:i] {
				eng.Retire(prev)
				delete(byID, prev)
			}
			job.done <- engineResult{err: err}
			return false
		}
		job.ids[i] = id
		byID[id] = job
	}
	e.admitted.Add(uint64(len(job.seeds)))
	return true
}

// postWorker turns completed jobs' samples into flows off the step
// loop. It post-processes each flow from its seed, as
// GenerateWithFlowSeeds does, so engine output is byte-identical to the
// direct call.
func (e *Engine) postWorker() {
	defer e.postWG.Done()
	for job := e.postQ.pop(); job != nil; job = e.postQ.pop() {
		res, err := e.synth.postprocess(job.ci, job.class, job.cfg, job.samples, job.seeds)
		job.done <- engineResult{res: res, err: err}
		runtime.Gosched() // same courtesy as the step loop: don't hog the P between jobs
	}
}
