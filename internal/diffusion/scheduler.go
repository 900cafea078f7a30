package diffusion

import (
	"fmt"
	"math"

	"trafficdiff/internal/nn"
	"trafficdiff/internal/stats"
	"trafficdiff/internal/tensor"
)

// FlowID names one flow admitted to a Scheduler.
type FlowID uint64

// FlowSpec describes one flow to admit into the in-flight denoising
// batch. Every flow carries its own class, guidance scale, step budget
// and RNG stream, so a single batch may mix classes and DDIM step
// counts freely: the denoiser forward already takes per-row timestep
// and class indices, and every kernel computes each output row with a
// row-count-independent accumulation order.
type FlowSpec struct {
	// Class conditions the flow ("the prompt"). Must be < NullClass.
	Class int
	// GuidanceScale w applies classifier-free guidance per flow:
	// ε = ε_uncond + w·(ε_cond − ε_uncond).
	GuidanceScale float64
	// DDIMSteps, when in (0, T), runs the deterministic DDIM sampler
	// with that many steps; otherwise full ancestral DDPM.
	DDIMSteps int
	// RNG is the flow's private noise stream. The scheduler draws the
	// initial x_T from it at admission and (for DDPM) one noise element
	// per pixel per step, exactly the draw sequence of a solo run — the
	// root of the bit-identity contract.
	RNG *stats.RNG
	// Control, when non-nil, is the flow's ControlNet conditioning
	// image with H*W leading elements. Control presence must be uniform
	// across all flows in one scheduler: the denoiser forward takes one
	// control tensor covering every row, so a nil-control flow cannot
	// share a forward with a conditioned one.
	Control *tensor.Tensor
	// Out receives the finished sample (len H*W) when the flow
	// completes. Retired flows never write it.
	Out []float32
	// JobRows is the number of flows admitted together as one request
	// (0 is treated as 1). It is a scheduling hint only: under a
	// step-row budget, flows belonging to smaller jobs with fewer
	// remaining steps are stepped first (shortest remaining processing
	// time), which minimizes mean request latency. It never affects any
	// flow's bytes.
	JobRows int
	// Start, when non-nil, is the flow's x at its first timestep StartT
	// (len H*W), replacing the x_T draw from RNG: the flow runs full
	// DDPM from StartT down to 0, so it takes no DDIM budget in (0, T).
	Start []float32
	// StartT is a Started flow's first DDPM timestep, in [0, T).
	StartT int
}

// SchedulerStats counts the engine's work. FlowSteps/Steps is the mean
// batch occupancy; a retired flow stops contributing to FlowSteps at
// the next step boundary, which is what "retiring dead work" means in
// forward passes saved.
type SchedulerStats struct {
	// Steps is the number of batched denoiser evaluations run (a
	// guided step's conditional+unconditional forward pair counts once).
	Steps uint64
	// FlowSteps is the number of flow-rows summed over those steps.
	FlowSteps uint64
	Admitted  uint64
	Completed uint64
	Retired   uint64
}

// schedFlow is one in-flight flow's private state. Its row index in
// the packed batch buffers is implicit: flows[i] owns row i.
type schedFlow struct {
	id  FlowID
	rng *stats.RNG

	class  int
	guided bool
	wg     float32

	// The step plan. DDIM: seq/coef are the memoized DDIMTable plan and
	// pos indexes seq, counting down to 0. DDPM: seq is nil and pos is
	// the current timestep t, counting down to 0. Either way pos < 0
	// means done.
	seq  []int
	coef []DDIMCoeff
	pos  int

	out     []float32
	retired bool
	// jobRows is the FlowSpec scheduling hint (≥1): the size of the
	// request this flow arrived with. The step-row budget prioritizes
	// jobRows·(pos+1) — the job's remaining row-steps — so a small
	// fresh request overtakes bulk work (SRPT).
	jobRows int
}

// remainingWork is the flow's SRPT priority key: its job's remaining
// denoiser row-steps, assuming siblings share its plan (they do — a
// job admits identical specs). Lower runs first.
func (f *schedFlow) remainingWork() int {
	return f.jobRows * (f.pos + 1)
}

// curT returns the flow's current timestep.
func (f *schedFlow) curT() int {
	if f.seq != nil {
		return f.seq[f.pos]
	}
	return f.pos
}

// Scheduler is an incremental denoising engine: a long-lived batched
// sampler whose batch composition may change at every timestep
// boundary. Admit adds flows to the in-flight batch (each starting at
// its own x_T), Step advances the active flows by one step of their
// own plans with ONE batched forward (a guided pair when any stepping
// flow wants guidance), and Retire drops a flow's rows at the next
// boundary so an abandoned request stops consuming forwards
// mid-generation. SetStepRows optionally caps the rows per forward,
// stepping the jobs with the least remaining work first so a fresh
// small request reaches its first result without paying for every
// bulk row in flight.
//
// Determinism: a flow's output is a pure function of its FlowSpec —
// independent of when it was admitted, which flows shared its
// forwards, and in which buffer row it ran. This holds because every
// kernel computes each output row with an accumulation order
// independent of the batch's row count, the forward conditions each
// row only on that row's timestep/class embedding, and all noise comes
// from the flow's private stream. sample_equiv_test.go pins this
// byte-for-byte under admission/retire churn against a sequential
// batch-1 reference loop kept in the tests.
//
// Steady-state allocation: the packed row buffers, index slices, view
// headers and the reuse-enabled no-grad tape arena all persist across
// steps, so a stable batch steps without allocating; only a sharded op's
// dispatch closure allocates (TestSchedulerSteadyStateAllocs).
//
// A Scheduler is NOT safe for concurrent use: one goroutine owns it
// (an engine step loop, or an Inpaint or Translate call).
type Scheduler struct {
	sched *Schedule
	model Denoiser
	// forward, when set, replaces the split path (see NewScheduler).
	forward   ForwardFunc
	nullClass int
	h, w, d   int

	flows []*schedFlow
	// Packed row storage: flow i's pixels live in xbuf[i*d:(i+1)*d].
	// The DDPM/DDIM updates run in place here, so rows are only copied
	// on admission, compaction and completion — never per step.
	xbuf []float32
	// cbuf mirrors xbuf for per-flow control rows when control is on,
	// cw elements per row: the flow's control image (cw = d) on the
	// plain path, its control features (cw = hidden) on the split path,
	// projected once at admission so no step runs the control
	// projection.
	cbuf      []float32
	cw        int
	controlOn bool
	// ctrlSeen holds the control images projected on the split path with
	// their features: flows of one class share one image, so an
	// admission whose image's bits match an entry reuses its projection
	// (see controlFeatures).
	ctrlSeen []ctrlEntry
	// stepRows caps the rows advanced per Step (0 = all): see
	// SetStepRows.
	stepRows int
	// rowTmp is the scratch for swapping two packed rows (max(d, cw)).
	rowTmp []float32

	tp    *nn.Tape
	steps []int
	// class holds two entries per row: a step over n rows reads
	// class[:n] as the flows' classes and class[n:2n] as the null class,
	// contiguous so a guided split step hands the head one [2n] slice.
	class []int

	// Cached view headers over the packed buffers, and the graph values
	// wrapping them that a step feeds the model — the forward reads the
	// packed rows in place, nothing is copied in. Rebuilt only when the
	// active row count or the backing arrays change.
	xView, cView *tensor.Tensor
	xIn, cIn     *nn.V
	viewN        int

	completed []FlowID
	nextID    FlowID
	stats     SchedulerStats
}

// NewScheduler builds an empty engine over the model and schedule.
// forward overrides the model's forward pass (ablations, timing
// probes, the plain-path reference in tests): a step then runs it once, and
// once more with the null class when any stepping flow is guided — the
// plain path. Its x_t argument views the scheduler's packed rows and
// its result is scratch the step overwrites; neither may be kept. With
// a nil forward the scheduler takes the split path instead: each flow's
// control image is projected once at Admit, and a step runs the trunk
// once over its n rows and the head once over the conditional and
// unconditional class rows, both halves reading the same trunk rows,
// which is bit-identical to the plain path because every kernel
// computes a row from that row alone.
func NewScheduler(model Denoiser, sched *Schedule, forward ForwardFunc) *Scheduler {
	h, w := model.Shape()
	s := &Scheduler{
		sched:     sched,
		model:     model,
		forward:   forward,
		nullClass: model.NullClass(),
		h:         h, w: w, d: h * w,
		tp:     nn.NewTape(),
		viewN:  -1,
		rowTmp: make([]float32, h*w),
	}
	s.tp.EnableReuse()
	s.tp.SetNoGrad(true)
	return s
}

// Active returns the number of in-flight flows (including ones marked
// retired but not yet dropped at a boundary).
func (s *Scheduler) Active() int { return len(s.flows) }

// Stats returns a snapshot of the engine's work counters.
func (s *Scheduler) Stats() SchedulerStats { return s.stats }

// Admit adds a flow to the batch, drawing its initial x_T noise from
// its private stream unless the spec gives a Start. The flow joins the
// next Step's forward. Admission order never affects any flow's output
// bytes.
func (s *Scheduler) Admit(spec FlowSpec) (FlowID, error) {
	if spec.RNG == nil {
		return 0, fmt.Errorf("diffusion: admit needs a flow RNG")
	}
	if spec.Class < 0 || spec.Class >= s.nullClass {
		return 0, fmt.Errorf("diffusion: class %d out of range [0,%d)", spec.Class, s.nullClass)
	}
	if len(spec.Out) != s.d {
		return 0, fmt.Errorf("diffusion: out buffer has %d elements, want %d", len(spec.Out), s.d)
	}
	hasControl := spec.Control != nil
	if hasControl && len(spec.Control.Data) < s.d {
		return 0, fmt.Errorf("diffusion: control image smaller than %d elements", s.d)
	}
	if spec.Start != nil {
		switch {
		case len(spec.Start) != s.d:
			return 0, fmt.Errorf("diffusion: start image has %d elements, want %d", len(spec.Start), s.d)
		case spec.DDIMSteps > 0 && spec.DDIMSteps < s.sched.T:
			return 0, fmt.Errorf("diffusion: a started flow runs DDPM, not %d DDIM steps", spec.DDIMSteps)
		case spec.StartT < 0 || spec.StartT >= s.sched.T:
			return 0, fmt.Errorf("diffusion: start step %d out of range [0,%d)", spec.StartT, s.sched.T)
		}
	}
	if len(s.flows) == 0 {
		s.controlOn = hasControl
	} else if hasControl != s.controlOn {
		return 0, fmt.Errorf("diffusion: control presence must be uniform across the batch")
	}

	f := &schedFlow{
		id:      s.nextID,
		rng:     spec.RNG,
		class:   spec.Class,
		out:     spec.Out,
		jobRows: max(spec.JobRows, 1),
	}
	s.nextID++
	f.guided = !stats.ApproxEqual(spec.GuidanceScale, 1, 1e-9)
	if f.guided {
		f.wg = float32(spec.GuidanceScale)
	}
	switch {
	case spec.Start != nil:
		f.pos = spec.StartT
	case spec.DDIMSteps > 0 && spec.DDIMSteps < s.sched.T:
		f.seq, f.coef = s.sched.DDIMTable(spec.DDIMSteps)
		f.pos = len(f.seq) - 1
	default:
		f.pos = s.sched.T - 1
	}

	// The flow's control row as cbuf stores it. On the split path that
	// is the projected image: it never changes over the flow's life, so
	// projecting here replaces one projection per forward.
	var crow []float32
	if hasControl {
		crow = spec.Control.Data[:s.d]
		if s.forward == nil {
			crow = s.controlFeatures(crow)
		}
		s.cw = len(crow)
	}
	row := len(s.flows)
	s.growTo(row + 1)
	seg := s.xbuf[row*s.d : (row+1)*s.d]
	if spec.Start != nil {
		copy(seg, spec.Start)
	} else {
		for j := range seg {
			seg[j] = float32(spec.RNG.NormFloat64())
		}
	}
	if hasControl {
		copy(s.cbuf[row*s.cw:(row+1)*s.cw], crow)
	}
	s.flows = append(s.flows, f)
	s.stats.Admitted++
	return f.id, nil
}

// ctrlEntry is one projected control image and its features.
type ctrlEntry struct{ image, feat []float32 }

// controlFeatures returns the model's projection of a control
// image, computed once per distinct image: same input, same bytes,
// without streaming the projection's weights again. A model conditions
// on one image per class, so the entries are capped at the class count;
// a caller with more images than that re-projects into the last entry,
// as every admission after a change of image used to. The tape is idle
// between steps; Recycle returns the projection's values once they are
// copied out.
func (s *Scheduler) controlFeatures(image []float32) []float32 {
	for i := range s.ctrlSeen {
		if sameBits(s.ctrlSeen[i].image, image) {
			return s.ctrlSeen[i].feat
		}
	}
	if len(s.ctrlSeen) < s.nullClass {
		s.ctrlSeen = append(s.ctrlSeen, ctrlEntry{})
	}
	e := &s.ctrlSeen[len(s.ctrlSeen)-1]
	feat := s.model.ControlFeatures(s.tp, tensor.FromSlice(image, 1, s.d)).X.Data
	e.image = append(e.image[:0], image...)
	e.feat = append(e.feat[:0], feat...)
	s.tp.Recycle()
	return e.feat
}

// sameBits reports whether a and b hold the same float32 bit patterns
// (so -0 differs from +0 and a NaN equals itself).
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float32bits(v) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// Retire marks a flow for removal; its rows are dropped at the start
// of the next Step without running further forwards and without
// writing Out. Retiring an unknown or already-finished id is a no-op.
func (s *Scheduler) Retire(id FlowID) {
	for _, f := range s.flows {
		if f.id == id {
			f.retired = true
			return
		}
	}
}

// Row returns a flow's live x_t, which the caller may overwrite between
// Steps, or nil once the flow has completed or been retired, or for an
// unknown id. It aliases the packed buffers: valid until the next Admit
// or Step.
func (s *Scheduler) Row(id FlowID) []float32 {
	for i, f := range s.flows {
		if f.id == id && !f.retired {
			return s.xbuf[i*s.d : (i+1)*s.d]
		}
	}
	return nil
}

// growTo makes the packed buffers and index slices hold at least n
// rows, preserving live rows. Geometric growth keeps admission churn
// amortized-O(row). The control buffer is sized on first need: only a
// conditioned batch has one, and its row width is known only then.
func (s *Scheduler) growTo(n int) {
	rows := len(s.steps)
	if n > rows {
		if rows < 4 {
			rows = 4
		}
		for rows < n {
			rows *= 2
		}
		xbuf := make([]float32, rows*s.d)
		copy(xbuf, s.xbuf[:len(s.flows)*s.d])
		s.xbuf = xbuf
		s.steps = make([]int, rows)
		s.class = make([]int, 2*rows)
		s.viewN = -1 // backing arrays moved; view headers are stale
	}
	if s.controlOn && len(s.cbuf) < rows*s.cw {
		cbuf := make([]float32, rows*s.cw)
		copy(cbuf, s.cbuf[:len(s.flows)*s.cw])
		s.cbuf = cbuf
		if len(s.rowTmp) < s.cw {
			s.rowTmp = make([]float32, s.cw)
		}
		s.viewN = -1
	}
}

// SetStepRows caps the rows advanced per Step call at n (0 restores
// the default of stepping every active row). When the batch exceeds
// the cap, each Step picks the n flows whose jobs have the least
// remaining row-steps (shortest remaining processing time, ties by
// admission order), so fresh small requests reach their first result
// through small, cheap forwards while bulk jobs drain oldest-first
// through the remaining capacity. Output bytes are unaffected: which
// rows share a forward never changes any flow's math, only when it
// runs.
func (s *Scheduler) SetStepRows(n int) {
	if n < 0 {
		n = 0
	}
	s.stepRows = n
}

// dropRow removes row i from the packed state by moving the last row
// into its place. Row order is free to change: no flow's bytes depend
// on which row it occupies.
func (s *Scheduler) dropRow(i int) {
	last := len(s.flows) - 1
	if i != last {
		copy(s.xbuf[i*s.d:(i+1)*s.d], s.xbuf[last*s.d:(last+1)*s.d])
		if s.controlOn {
			copy(s.cbuf[i*s.cw:(i+1)*s.cw], s.cbuf[last*s.cw:(last+1)*s.cw])
		}
		s.flows[i] = s.flows[last]
	}
	s.flows[last] = nil
	s.flows = s.flows[:last]
}

// swapRows exchanges rows i and j of the packed state.
func (s *Scheduler) swapRows(i, j int) {
	if i == j {
		return
	}
	s.swapSeg(s.xbuf, s.d, i, j)
	if s.controlOn {
		s.swapSeg(s.cbuf, s.cw, i, j)
	}
	s.flows[i], s.flows[j] = s.flows[j], s.flows[i]
}

// swapSeg exchanges rows i and j of a packed buffer of the given row
// width through rowTmp.
func (s *Scheduler) swapSeg(buf []float32, width, i, j int) {
	ri, rj := buf[i*width:(i+1)*width], buf[j*width:(j+1)*width]
	tmp := s.rowTmp[:width]
	copy(tmp, ri)
	copy(ri, rj)
	copy(rj, tmp)
}

// selectActive applies the step-row budget: when the batch exceeds it,
// the budget's worth of flows with the least remaining job work (ties
// by admission order) are swapped to the front rows and only they
// advance this Step — shortest remaining processing time, the policy
// that minimizes mean request latency when sizes are known. A 1-flow
// probe therefore steps at every boundary even when an 8-flow bulk
// request lands right next to it, while bulk jobs drain in admission
// order through the remaining capacity. Starvation is bounded by the
// small-request load share: a big job's key only decreases as it runs,
// so whenever small jobs leave budget headroom the oldest big job
// advances. (Least-attained-service with admission-order ties was
// tried first and measured worse: every fresh bulk batch outranked the
// mid-flight probe until it caught up.) The partial selection sort is
// deterministic and O(budget·n) on batches of at most a few dozen
// rows.
func (s *Scheduler) selectActive() int {
	n := len(s.flows)
	if s.stepRows <= 0 || n <= s.stepRows {
		return n
	}
	for k := 0; k < s.stepRows; k++ {
		best := k
		for i := k + 1; i < n; i++ {
			f, b := s.flows[i], s.flows[best]
			fw, bw := f.remainingWork(), b.remainingWork()
			if fw < bw || (fw == bw && f.id < b.id) {
				best = i
			}
		}
		s.swapRows(k, best)
	}
	return s.stepRows
}

// views points the cached headers at the first n packed rows — x as
// [n,1,H,W]; control as [n,1,H,W] images on the plain path, [n,cw]
// features on the split path, nil when control is off — and wraps x
// (and the split path's features) as gradient-free graph values,
// rebuilding them only when n or the backing arrays changed: a stable
// batch reuses the same headers every step.
func (s *Scheduler) views(n int) {
	if s.viewN == n {
		return
	}
	//tracelint:allow hotalloc — header-only rebuild when batch composition changes; stable batches reuse it
	s.xView = tensor.FromSlice(s.xbuf[:n*s.d], n, 1, s.h, s.w)
	//tracelint:allow hotalloc — header-only rebuild when batch composition changes; stable batches reuse it
	s.xIn = &nn.V{X: s.xView}
	s.cView, s.cIn = nil, nil
	switch {
	case !s.controlOn:
	case s.forward == nil:
		//tracelint:allow hotalloc — header-only rebuild when batch composition changes; stable batches reuse it
		s.cView = tensor.FromSlice(s.cbuf[:n*s.cw], n, s.cw)
		//tracelint:allow hotalloc — header-only rebuild when batch composition changes; stable batches reuse it
		s.cIn = &nn.V{X: s.cView}
	default:
		//tracelint:allow hotalloc — header-only rebuild when batch composition changes; stable batches reuse it
		s.cView = tensor.FromSlice(s.cbuf[:n*s.cw], n, 1, s.h, s.w)
	}
	s.viewN = n
}

// predict evaluates ε for the first n rows at their timesteps, with
// s.steps and s.class already filled: cond is ε under each flow's own
// class, and uncond, when guided, ε under the null class (nil
// otherwise). Both are tape-owned and valid until the next Recycle.
//
// Plain path: one forward, and a second under the null class when
// guided. Split path: the trunk once; then the head once — over the n
// rows when unguided, over 2n rows under class[:n] ‖ class[n:2n] when
// guided, each half reading the same n trunk rows and control features
// (see Denoiser.Head).
//
//tracelint:hotpath
func (s *Scheduler) predict(n int, guided bool) (cond, uncond []float32) {
	s.views(n)
	tp := s.tp
	if s.forward != nil {
		cond = s.forward(tp, s.xIn, s.steps[:n], s.class[:n], s.cView).X.Data
		if guided {
			uncond = s.forward(tp, s.xIn, s.steps[:n], s.class[n:2*n], s.cView).X.Data
		}
		return cond, uncond
	}
	h, skip := s.model.Trunk(tp, s.xIn, s.steps[:n])
	if !guided {
		return s.model.Head(tp, h, skip, s.class[:n], s.cIn).X.Data, nil
	}
	eps := s.model.Head(tp, h, skip, s.class[:2*n], s.cIn).X.Data
	return eps[:n*s.d], eps[n*s.d:]
}

// workUpdate is advance's cost per element in the multiply-add
// equivalents tensor.ParallelOK counts: a float64 divide, two clamps and
// five multiply-adds — 3.2 ns per element in a CPU profile of 64-flow
// DDIM sampling (0.14 s over 44 M elements) against ≈ 0.22 ns per
// multiply-add of the GEMM kernel; DDPM's noise draw only adds to it.
const workUpdate = 16

// advance applies one step to rows [lo, hi): a guided flow's ε is
// combined in place over its conditional row (a tape value dead after
// this step; the store rounds to float32 exactly as a separate buffer
// did), then the row takes its DDPM/DDIM update. A flow owns its row,
// its coefficients and its RNG stream, so rows advance independently
// and any split of them yields the same bytes.
//
//tracelint:hotpath
func (s *Scheduler) advance(cond, uncond []float32, lo, hi int) {
	d := s.d
	for i := lo; i < hi; i++ {
		f := s.flows[i]
		row := s.xbuf[i*d : (i+1)*d]
		e := cond[i*d : (i+1)*d]
		if f.guided {
			u := uncond[i*d : (i+1)*d]
			wg := f.wg
			for j, c := range e {
				e[j] = u[j] + float32(wg*(c-u[j]))
			}
		}
		if f.seq != nil {
			ddimUpdate(row, e, f.coef[f.pos])
		} else {
			ddpmUpdate(row, e, s.sched, f.pos, f.rng)
		}
		f.pos--
	}
}

// Step advances the active flows by one step of their own plans:
// retired flows are dropped first, the step-row budget (if set) picks
// the least-remaining-work flows to advance, then ONE batched evaluation
// (predict: a guided pair when any stepping flow is guided) gives ε for
// the stepping rows at their per-row timesteps, and each flow's guidance
// combine and DDPM/DDIM update run in place from its own coefficients
// and private stream (advance, row-sharded like the kernels).
// Flows whose plan is exhausted copy their row into Out and leave the
// batch; their IDs are returned (the slice is reused across calls —
// copy it to keep it).
//
//tracelint:hotpath
func (s *Scheduler) Step() []FlowID {
	s.completed = s.completed[:0]
	for i := 0; i < len(s.flows); {
		if s.flows[i].retired {
			s.stats.Retired++
			s.dropRow(i)
			continue
		}
		i++
	}
	if len(s.flows) == 0 {
		return s.completed
	}
	n := s.selectActive()

	guided := false
	for i, f := range s.flows[:n] {
		s.steps[i] = f.curT()
		s.class[i] = f.class
		s.class[n+i] = s.nullClass
		guided = guided || f.guided
	}
	cond, uncond := s.predict(n, guided)
	if tensor.ParallelOK(n * s.d * workUpdate) {
		//tracelint:allow hotalloc — parallel path only, behind the size check
		tensor.Shard(n, func(lo, hi int) { s.advance(cond, uncond, lo, hi) })
	} else {
		s.advance(cond, uncond, 0, n)
	}
	s.tp.Reset()
	s.tp.Recycle()
	s.stats.Steps++
	s.stats.FlowSteps += uint64(n)

	for i := 0; i < len(s.flows); {
		f := s.flows[i]
		if f.pos >= 0 {
			i++
			continue
		}
		copy(f.out, s.xbuf[i*s.d:(i+1)*s.d])
		//tracelint:allow hotalloc — completed-ID append: capacity reaches steady state after the first completions
		s.completed = append(s.completed, f.id)
		s.stats.Completed++
		s.dropRow(i)
	}
	return s.completed
}
