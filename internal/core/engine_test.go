package core

import (
	"bytes"
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEngineMatchesDirectGenerate is the engine's bit-identity
// contract: concurrent staggered Generate calls through the shared
// continuous batch return byte-for-byte what one scheduler driven
// directly (oracleGenerate) returns for the same seeds, regardless of
// which requests shared denoiser forwards.
func TestEngineMatchesDirectGenerate(t *testing.T) {
	s := sharedSynth(t)
	eng, err := NewEngine(s, EngineConfig{MaxInFlight: 8, PostWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	type req struct {
		class string
		seeds []uint64
	}
	reqs := make([]req, 9)
	for i := range reqs {
		class := sharedClass[i%len(sharedClass)]
		seeds := DeriveFlowSeeds(uint64(7000+i), 1+i%3)
		reqs[i] = req{class, seeds}
	}

	got := make([][]byte, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, r := range reqs {
		wg.Add(1)
		go func(i int, r req) {
			defer wg.Done()
			// Stagger arrivals so later requests join a batch that is
			// already mid-denoise.
			time.Sleep(time.Duration(i) * 3 * time.Millisecond)
			res, err := eng.Generate(context.Background(), r.class, r.seeds, nil)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = pcapBytes(t, res.Flows)
		}(i, r)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for i, r := range reqs {
		want := oracleGenerate(t, s, r.class, r.seeds)
		if !bytes.Equal(got[i], pcapBytes(t, want.Flows)) {
			t.Errorf("request %d (%s, %d flows): engine bytes differ from the scheduler oracle",
				i, r.class, len(r.seeds))
		}
	}
	st := eng.Stats()
	if st.FlowsAdmitted == 0 || st.FlowsCompleted != st.FlowsAdmitted {
		t.Errorf("stats admitted/completed = %d/%d, want equal and positive",
			st.FlowsAdmitted, st.FlowsCompleted)
	}
}

// TestEngineExpiryRetiresFlows is the wasted-work contract at the
// engine level: a request whose context is cancelled after admission
// gets the context error back, and its flows stop consuming denoiser
// forwards at the next step boundary instead of running the rest of
// their step plans as dead work.
func TestEngineExpiryRetiresFlows(t *testing.T) {
	s := sharedSynth(t)
	eng, err := NewEngine(s, EngineConfig{MaxInFlight: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		// Cancelling from onAdmit runs in the step loop itself, so the
		// request is deterministically expired at the first boundary
		// after admission — no race against the generation finishing.
		_, err := eng.Generate(ctx, sharedClass[0], DeriveFlowSeeds(1234, 8), cancel)
		done <- err
	}()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("cancelled request returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled request not answered at the next step boundary")
	}
	st := eng.Stats()
	if st.RequestsExpired != 1 {
		t.Errorf("RequestsExpired = %d, want 1", st.RequestsExpired)
	}
	if st.FlowsRetired+st.FlowsCompleted != 8 {
		t.Errorf("retired+completed = %d+%d, want 8", st.FlowsRetired, st.FlowsCompleted)
	}
	if st.FlowsRetired == 0 {
		t.Error("no flows retired: cancelled request ran to completion as dead work")
	}
	// The full run would cost 8 flows × the DDIM budget; retirement at
	// the cancel boundary must have saved most of it.
	full := uint64(8 * fastConfig().DDIMSteps)
	if st.FlowSteps >= full {
		t.Errorf("FlowSteps = %d, want < %d (retired flows kept consuming forwards)", st.FlowSteps, full)
	}
}

// boundaryCtx is a context whose Err the engine's step loop calls at
// every boundary while the request is at the queue head or in flight;
// seen runs on each call, on the loop goroutine, before that
// boundary's step.
type boundaryCtx struct {
	context.Context
	seen func()
}

func (c boundaryCtx) Err() error {
	c.seen()
	return c.Context.Err()
}

// TestEngineStepRowsPreemptsBulk checks that EngineConfig.MaxStepRows
// reaches the scheduler. With a one-row budget, a 1-flow probe admitted
// one step after a 16-flow bulk request has the least remaining work,
// so it advances at every boundary and finishes before any bulk flow.
// Without the budget every row steps together and the bulk, one step
// ahead, finishes first. The completion counter is read at the probe's
// last boundary, from the step loop itself, so the check counts steps
// and never races the clock. The budget orders rows within one loop's
// batch, so the engine is built at GOMAXPROCS 1: one loop, and the
// probe joins the bulk's batch instead of taking an idle loop.
func TestEngineStepRowsPreemptsBulk(t *testing.T) {
	s := sharedSynth(t)
	prev := runtime.GOMAXPROCS(1)
	eng, err := NewEngine(s, EngineConfig{MaxInFlight: 17, MaxStepRows: 1})
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	var completedBefore atomic.Uint64 // FlowsCompleted before the probe's last step
	probeCtx := boundaryCtx{context.Background(), func() {
		completedBefore.Store(eng.Stats().FlowsCompleted)
	}}
	probe := make(chan error, 1)
	submitProbe := func() {
		// Runs in the step loop before the bulk's first step. Hold the
		// loop until the probe is queued, so it is admitted at exactly
		// the next boundary.
		go func() {
			_, err := eng.Generate(probeCtx, sharedClass[1], DeriveFlowSeeds(2, 1), nil)
			probe <- err
		}()
		for {
			l := eng.loops[0]
			l.mu.Lock()
			queued := len(l.pending)
			l.mu.Unlock()
			if queued > 0 {
				return
			}
			runtime.Gosched()
		}
	}
	bulk := make(chan error, 1)
	go func() {
		_, err := eng.Generate(context.Background(), sharedClass[0], DeriveFlowSeeds(1, 16), submitProbe)
		bulk <- err
	}()
	if err := <-probe; err != nil {
		t.Fatalf("probe: %v", err)
	}
	if err := <-bulk; err != nil {
		t.Fatalf("bulk: %v", err)
	}
	if n := completedBefore.Load(); n > 0 {
		t.Errorf("FlowsCompleted = %d before the 1-flow probe's last step, want 0: "+
			"the 16-flow bulk finished first, the step-row budget did not preempt it", n)
	}
}

// TestEngineValidation covers the Generate error surface.
func TestEngineValidation(t *testing.T) {
	s := sharedSynth(t)
	eng, err := NewEngine(s, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Generate(context.Background(), "nope", []uint64{1}, nil); err == nil {
		t.Error("unknown class accepted")
	}
	if _, err := eng.Generate(context.Background(), sharedClass[0], nil, nil); err == nil {
		t.Error("empty seed list accepted")
	}
	untrained, err := New(fastConfig(), []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(untrained, EngineConfig{}); err == nil {
		t.Error("engine over an untrained synthesizer accepted")
	}
}

// TestEngineSplitsLargeRequest deals an 11-flow request over three
// loops with MaxInFlight 4: it is cut into three pieces (3, 4 and 4
// flows: 11 = 3·4 − 1, as even as they come), one per loop by load, so
// every loop steps flows, and the request answers once with the
// oracle's bytes and exact counters.
func TestEngineSplitsLargeRequest(t *testing.T) {
	s := sharedSynth(t)
	eng, err := newEngine(s, EngineConfig{MaxInFlight: 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	seeds := DeriveFlowSeeds(99, 11)
	res, err := eng.Generate(context.Background(), sharedClass[0], seeds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 11 {
		t.Fatalf("got %d flows, want 11", len(res.Flows))
	}
	want := oracleGenerate(t, s, sharedClass[0], seeds)
	if !bytes.Equal(pcapBytes(t, res.Flows), pcapBytes(t, want.Flows)) {
		t.Error("split request bytes differ from the scheduler oracle")
	}
	ddim := uint64(s.DDIMSteps())
	for i, l := range eng.loops {
		if got, want := l.flowSteps.Load(), []uint64{3, 4, 4}[i]*ddim; got != want {
			t.Errorf("loop %d stepped %d flow-rows, want %d (its piece's flows × %d steps)", i, got, want, ddim)
		}
	}
	st := eng.Stats()
	if st.FlowsAdmitted != 11 || st.FlowsCompleted != 11 || st.FlowsRetired != 0 || st.RequestsExpired != 0 {
		t.Errorf("stats %+v, want 11 admitted and completed, none retired or expired", st)
	}
}

// TestEngineSplitExpiryRetiresEveryPiece cancels a 12-flow request dealt
// as three 4-flow pieces once every piece has taken one step, from the
// boundary hook of the loop that sees the third step: the request
// answers once, with the context error, and every flow of every piece
// that had not completed is retired — none of them runs its plan out.
func TestEngineSplitExpiryRetiresEveryPiece(t *testing.T) {
	s := sharedSynth(t)
	eng, err := newEngine(s, EngineConfig{MaxInFlight: 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var boundaries atomic.Int32
	expiring := boundaryCtx{ctx, func() {
		// Every loop asks at every boundary; the request is cancelled
		// once each loop has stepped its piece at least once.
		if boundaries.Add(1) > 3 && slices.Min(loopSteps(eng)) > 0 {
			cancel()
		}
	}}
	_, err = eng.Generate(expiring, sharedClass[1], DeriveFlowSeeds(4321, 12), nil)
	if err != context.Canceled {
		t.Fatalf("split request returned %v, want context.Canceled", err)
	}
	st := eng.Stats()
	if st.RequestsExpired != 1 {
		t.Errorf("RequestsExpired = %d, want 1: the request answered once", st.RequestsExpired)
	}
	if st.FlowsAdmitted != 12 || st.FlowsCompleted+st.FlowsRetired != 12 {
		t.Errorf("admitted %d, completed %d + retired %d, want 12 admitted and each settled once",
			st.FlowsAdmitted, st.FlowsCompleted, st.FlowsRetired)
	}
	if st.FlowsRetired == 0 {
		t.Error("no flow retired: the pieces ran to completion as dead work")
	}
	if full := uint64(12 * s.DDIMSteps()); st.FlowSteps >= full {
		t.Errorf("FlowSteps = %d, want < %d (retired pieces kept stepping)", st.FlowSteps, full)
	}
	for i, steps := range loopSteps(eng) {
		if steps == 0 {
			t.Errorf("loop %d never stepped its piece", i)
		}
	}
}

// TestEngineExpiredBeforeAdmission checks a request that dies in the
// pending queue is answered with its context error and never admitted.
func TestEngineExpiredBeforeAdmission(t *testing.T) {
	s := sharedSynth(t)
	eng, err := NewEngine(s, EngineConfig{MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Occupy the whole cap with a long request, then enqueue a doomed
	// one behind it with an already-cancelled context.
	admitted := make(chan struct{})
	first := make(chan error, 1)
	go func() {
		_, err := eng.Generate(context.Background(), sharedClass[0], DeriveFlowSeeds(1, 2), func() { close(admitted) })
		first <- err
	}()
	<-admitted
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Generate(ctx, sharedClass[0], DeriveFlowSeeds(2, 1), nil); err != context.Canceled {
		t.Fatalf("pre-admission expired request returned %v, want context.Canceled", err)
	}
	if err := <-first; err != nil {
		t.Fatalf("long request: %v", err)
	}
	st := eng.Stats()
	if st.FlowsAdmitted != 2 {
		t.Errorf("FlowsAdmitted = %d, want 2 (expired request must not be admitted)", st.FlowsAdmitted)
	}
	if st.RequestsExpired != 1 {
		t.Errorf("RequestsExpired = %d, want 1", st.RequestsExpired)
	}
}

// TestEngineMixedClassesShareBatch verifies the engine admits requests
// for different classes into one in-flight batch (per-row class
// conditioning makes same-class coalescing unnecessary) and each still
// matches the scheduler oracle.
func TestEngineMixedClassesShareBatch(t *testing.T) {
	s := sharedSynth(t)
	eng, err := NewEngine(s, EngineConfig{MaxInFlight: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var wg sync.WaitGroup
	results := make([][]byte, 4)
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			class := sharedClass[i%2]
			res, err := eng.Generate(context.Background(), class, DeriveFlowSeeds(uint64(500+i), 2), nil)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = pcapBytes(t, res.Flows)
		}(i)
	}
	wg.Wait()
	for i := 0; i < 4; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		want := oracleGenerate(t, s, sharedClass[i%2], DeriveFlowSeeds(uint64(500+i), 2))
		if !bytes.Equal(results[i], pcapBytes(t, want.Flows)) {
			t.Errorf("request %d (%s): bytes differ from direct generation", i, sharedClass[i%2])
		}
	}
	st := eng.Stats()
	if st.Steps == 0 {
		t.Fatal("no steps recorded")
	}
	if occ := float64(st.FlowSteps) / float64(st.Steps); occ <= 1 {
		t.Logf("mean occupancy %.2f (timing-dependent; >1 means batching happened)", occ)
	}
}

// loopSteps returns each loop's step count.
func loopSteps(eng *Engine) []uint64 {
	steps := make([]uint64, len(eng.loops))
	for i, l := range eng.loops {
		steps[i] = l.steps.Load()
	}
	return steps
}

// TestEngineLoopsMatchDirectGenerate is the bit-identity contract
// across loops. An 8-flow request holds loop 0 at its admission while
// 1- and 2-flow requests run to completion on the other loops (each
// goes to the least-loaded loop, and neither of the others reaches
// loop 0's eight flows); then loop 0 runs. Every request returns what
// the scheduler oracle returns for its seeds.
func TestEngineLoopsMatchDirectGenerate(t *testing.T) {
	s := sharedSynth(t)
	eng, err := newEngine(s, EngineConfig{MaxInFlight: 8}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	seeds := make([][]uint64, 7)
	seeds[0] = DeriveFlowSeeds(8100, 8)
	for i := 1; i < len(seeds); i++ {
		seeds[i] = DeriveFlowSeeds(uint64(8100+i), 1+i%2)
	}
	got := make([][]byte, len(seeds))
	errs := make([]error, len(seeds))
	generate := func(i int, onAdmit func()) {
		res, err := eng.Generate(context.Background(), sharedClass[i%2], seeds[i], onAdmit)
		if err != nil {
			errs[i] = err
			return
		}
		got[i] = pcapBytes(t, res.Flows)
	}

	var others sync.WaitGroup
	holdLoop0 := func() {
		// Runs on loop 0 before the 8-flow request's first step.
		for i := 1; i < len(seeds); i++ {
			others.Add(1)
			go func(i int) {
				defer others.Done()
				generate(i, nil)
			}(i)
		}
		done := make(chan struct{})
		go func() { others.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Error("small requests did not finish while loop 0 was held: one was queued behind it")
		}
	}
	generate(0, holdLoop0)
	others.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	spread := 0
	for _, n := range loopSteps(eng) {
		if n > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Errorf("steps per loop %v: requests ran on %d loop(s), want ≥ 2", loopSteps(eng), spread)
	}
	for i := range seeds {
		want := oracleGenerate(t, s, sharedClass[i%2], seeds[i])
		if !bytes.Equal(got[i], pcapBytes(t, want.Flows)) {
			t.Errorf("request %d (%d flows): engine bytes differ from the scheduler oracle", i, len(seeds[i]))
		}
	}
}

// TestEngineProbeTakesIdleLoop checks assignment by load, in steps: a
// 1-flow probe submitted while an 8-flow request denoises on loop 0
// goes to idle loop 1 and finishes while loop 0 is held after the
// bulk's first step, so the bulk has taken one step and completed no
// flow when the probe's result arrives.
func TestEngineProbeTakesIdleLoop(t *testing.T) {
	s := sharedSynth(t)
	eng, err := newEngine(s, EngineConfig{MaxInFlight: 16}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Loop-0 goroutine state, read once the bulk has returned.
	var fired bool
	var probeErr error
	var atProbe []uint64
	var completedAtProbe uint64
	bulkCtx := boundaryCtx{context.Background(), func() {
		if fired || eng.loops[0].steps.Load() == 0 {
			return
		}
		fired = true
		probe := make(chan error, 1)
		go func() {
			_, err := eng.Generate(context.Background(), sharedClass[1], DeriveFlowSeeds(3, 1), nil)
			probe <- err
		}()
		select {
		case probeErr = <-probe:
			atProbe = loopSteps(eng)
			completedAtProbe = eng.Stats().FlowsCompleted
		case <-time.After(60 * time.Second):
			t.Error("probe did not finish while loop 0 was held: it was queued behind the bulk")
		}
	}}
	if _, err := eng.Generate(bulkCtx, sharedClass[0], DeriveFlowSeeds(4, 8), nil); err != nil {
		t.Fatalf("bulk: %v", err)
	}
	if !fired {
		t.Fatal("the bulk's boundary hook never fired")
	}
	if probeErr != nil {
		t.Fatalf("probe: %v", probeErr)
	}
	ddim := uint64(s.DDIMSteps())
	if len(atProbe) != 2 || atProbe[0] != 1 || atProbe[1] != ddim {
		t.Errorf("steps per loop when the probe finished = %v, want [1 %d]", atProbe, ddim)
	}
	if completedAtProbe != 1 {
		t.Errorf("FlowsCompleted when the probe finished = %d, want 1 (the probe alone)", completedAtProbe)
	}
}

// TestEngineCloseDrains holds each of three loops at its first
// admission, queues three more requests behind them (one per loop, by
// load), closes the engine and only then lets the loops run: Close
// returns after every loop has answered everything assigned to it, and
// new submissions are refused.
func TestEngineCloseDrains(t *testing.T) {
	s := sharedSynth(t)
	eng, err := newEngine(s, EngineConfig{MaxInFlight: 16}, 3)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	gate := make(chan struct{})
	admits := make(chan struct{}, n)
	onAdmit := func() {
		admits <- struct{}{}
		<-gate
	}
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			_, err := eng.Generate(context.Background(), sharedClass[i%2], DeriveFlowSeeds(uint64(900+i), 2), onAdmit)
			errs <- err
		}(i)
	}
	for i := 0; i < len(eng.loops); i++ {
		<-admits // one request holds each loop: none steps, no load drains
	}
	loadsSettled := func() bool {
		var sum int64
		for _, l := range eng.loops {
			sum += l.load.Load()
		}
		return sum == 2*n
	}
	for !loadsSettled() {
		runtime.Gosched()
	}
	for i, l := range eng.loops {
		if got := l.load.Load(); got != 2*n/int64(len(eng.loops)) {
			t.Errorf("loop %d load = %d flows, want %d (least-loaded assignment)", i, got, 2*n/len(eng.loops))
		}
	}

	closed := make(chan struct{})
	go func() { eng.Close(); close(closed) }()
	for refused := false; !refused; runtime.Gosched() {
		eng.mu.Lock()
		refused = eng.closed
		eng.mu.Unlock()
	}
	close(gate)
	<-closed
	if st := eng.Stats(); st.FlowsCompleted != 2*n {
		t.Errorf("FlowsCompleted = %d when Close returned, want %d", st.FlowsCompleted, 2*n)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Errorf("request during drain: %v", err)
		}
	}
	for i, steps := range loopSteps(eng) {
		if steps == 0 {
			t.Errorf("loop %d never stepped", i)
		}
	}
	if _, err := eng.Generate(context.Background(), sharedClass[0], []uint64{1}, nil); err == nil {
		t.Error("Generate after Close succeeded, want error")
	}
}

// TestEngineLoopStatsReconcile checks the summed counters across loops:
// once the engine is closed, every admitted flow either completed or
// was retired, and Steps and FlowSteps are the loops' sums.
func TestEngineLoopStatsReconcile(t *testing.T) {
	s := sharedSynth(t)
	eng, err := newEngine(s, EngineConfig{MaxInFlight: 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			onAdmit := func() {}
			if i%3 == 0 {
				onAdmit = cancel // expires at the boundary after admission
			}
			_, err := eng.Generate(ctx, sharedClass[i%2], DeriveFlowSeeds(uint64(600+i), 1+i%4), onAdmit)
			if err != nil && err != context.Canceled {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	eng.Close()
	st := eng.Stats()
	if st.FlowsAdmitted == 0 || st.FlowsAdmitted != st.FlowsCompleted+st.FlowsRetired {
		t.Errorf("admitted %d != completed %d + retired %d", st.FlowsAdmitted, st.FlowsCompleted, st.FlowsRetired)
	}
	if st.RequestsExpired != 3 {
		t.Errorf("RequestsExpired = %d, want 3", st.RequestsExpired)
	}
	var steps, flowSteps uint64
	for _, l := range eng.loops {
		steps += l.steps.Load()
		flowSteps += l.flowSteps.Load()
		if l.load.Load() != 0 {
			t.Errorf("a closed loop still counts %d flows", l.load.Load())
		}
	}
	if st.Steps != steps || st.FlowSteps != flowSteps {
		t.Errorf("Stats steps/flow-steps = %d/%d, loops sum to %d/%d", st.Steps, st.FlowSteps, steps, flowSteps)
	}
}

// TestEngineLoopCount checks NewEngine's loop count: one per usable
// CPU, min(GOMAXPROCS, NumCPU), so GOMAXPROCS 1 gives the single-loop
// engine.
func TestEngineLoopCount(t *testing.T) {
	s := sharedSynth(t)
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		eng, err := NewEngine(s, EngineConfig{})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		eng.Close()
		if want := min(procs, runtime.NumCPU()); len(eng.loops) != want {
			t.Errorf("GOMAXPROCS %d: %d loops, want %d", procs, len(eng.loops), want)
		}
	}
}

// TestEngineStatsSnapshotsNeverNegative polls Stats while requests,
// some split into pieces and some cancelled mid-flight, complete and
// retire on three loops: in every snapshot the admitted flows are at
// least the completed plus retired ones, so a replica's reported
// in-flight load (their difference) never reads negative.
func TestEngineStatsSnapshotsNeverNegative(t *testing.T) {
	s := sharedSynth(t)
	eng, err := newEngine(s, EngineConfig{MaxInFlight: 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	stop := make(chan struct{})
	polled := make(chan int)
	go func() {
		n := 0
		defer func() { polled <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := eng.Stats()
			if st.FlowsAdmitted < st.FlowsCompleted+st.FlowsRetired {
				t.Errorf("snapshot admitted %d < completed %d + retired %d",
					st.FlowsAdmitted, st.FlowsCompleted, st.FlowsRetired)
				return
			}
			n++
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			onAdmit := func() {}
			if i%4 == 0 {
				onAdmit = cancel
			}
			_, err := eng.Generate(ctx, sharedClass[i%2], DeriveFlowSeeds(uint64(700+i), 1+i%5), onAdmit)
			if err != nil && err != context.Canceled {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	if n := <-polled; n == 0 {
		t.Error("no snapshot taken")
	}
	st := eng.Stats()
	if st.FlowsAdmitted != st.FlowsCompleted+st.FlowsRetired {
		t.Errorf("settled: admitted %d != completed %d + retired %d", st.FlowsAdmitted, st.FlowsCompleted, st.FlowsRetired)
	}
}

// TestOfflinePieces maps an offline call of n flows over L step loops
// to the pieces its engine deals (enqueue: the fewest of at most the
// flow cap, cut as even as they come): none holds more than 16 flows,
// their sizes are within one of each other and cover the call in
// order, and there are no more than L times the pieces of 16 flows a
// loop's share ⌈n/L⌉ needs, so dealt evenly no loop runs more of them
// than its share does (a 40-flow call on two loops is 4 × 10, not
// 13/13/14); up to 16·L flows the flow cap is the share itself.
func TestOfflinePieces(t *testing.T) {
	s := sharedSynth(t)
	want := map[int][3]int{ // n → pieces at L = 1, 2, 3
		1: {1, 1, 1}, 2: {1, 2, 2}, 8: {1, 2, 3}, 16: {1, 2, 3}, 17: {2, 2, 3},
		33: {3, 4, 3}, 40: {3, 4, 3}, 64: {4, 4, 6}, 2048: {128, 128, 128},
	}
	for n, ks := range want {
		for li, k := range ks {
			loops := li + 1
			eng, err := s.offlineEngine(n, loops)
			if err != nil {
				t.Fatal(err)
			}
			eng.Close()
			flowCap, share := eng.cfg.MaxInFlight, (n+loops-1)/loops
			if n <= DefaultMaxInFlight*loops && flowCap != share {
				t.Errorf("n=%d L=%d: flow cap %d, want ⌈n/L⌉ = %d", n, loops, flowCap, share)
			}
			if got := (n + flowCap - 1) / flowCap; got != k {
				t.Errorf("n=%d L=%d: %d pieces, want %d", n, loops, got, k)
				continue
			}
			lo, small, large := 0, n, 0
			for i := 0; i < k; i++ {
				plo, phi := i*n/k, (i+1)*n/k
				if plo != lo || phi <= plo {
					t.Fatalf("n=%d L=%d: piece %d spans [%d, %d) after %d", n, loops, i, plo, phi, lo)
				}
				small, large, lo = min(small, phi-plo), max(large, phi-plo), phi
			}
			if lo != n || large > DefaultMaxInFlight || large-small > 1 {
				t.Errorf("n=%d L=%d: pieces cover %d flows, sizes %d–%d", n, loops, lo, small, large)
			}
			if perLoop := (share + DefaultMaxInFlight - 1) / DefaultMaxInFlight; k > loops*perLoop {
				t.Errorf("n=%d L=%d: %d pieces, more than %d per loop", n, loops, k, perLoop)
			}
		}
	}
}

// TestOfflineRefusesEmptyCall holds an offline call of no flows to an
// error, as for any engine request, not a panic.
func TestOfflineRefusesEmptyCall(t *testing.T) {
	s := sharedSynth(t)
	for _, seeds := range [][]uint64{nil, {}} {
		if _, err := s.GenerateWithFlowSeeds(sharedClass[0], seeds); err == nil {
			t.Errorf("GenerateWithFlowSeeds(%v) accepted no flows", seeds)
		}
	}
}

// TestOfflineCallStepsBoundedPieces makes a 256-flow offline call at
// GOMAXPROCS 2 on two loops: it is dealt in 16 pieces of 16 flows, and
// each loop steps one piece at a time, so no step holds more than 16
// flows (a piece's flows step together, and a loop's steps average 16
// rows); the pieces run back to back, 16 × DDIM steps in all. The
// flows, there and through GenerateWithFlowSeeds, equal the scheduler
// oracle's.
func TestOfflineCallStepsBoundedPieces(t *testing.T) {
	s := sharedSynth(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	class := sharedClass[1]
	seeds := DeriveFlowSeeds(2600, 256)
	eng, err := s.offlineEngine(len(seeds), 2)
	if err != nil {
		t.Fatal(err)
	}
	if eng.cfg.MaxInFlight != 16 {
		t.Errorf("256 flows on 2 loops: flow cap %d, want 16", eng.cfg.MaxInFlight)
	}
	res, err := eng.Generate(context.Background(), class, seeds, nil)
	eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	var steps uint64
	for i, l := range eng.loops {
		st, rows := l.steps.Load(), l.flowSteps.Load()
		if rows != 16*st {
			t.Errorf("loop %d stepped %d flow-rows in %d steps: some step held more or less than one 16-flow piece", i, rows, st)
		}
		steps += st
	}
	if want := 16 * uint64(s.DDIMSteps()); steps != want {
		t.Errorf("the loops took %d steps, want %d: one piece at a time", steps, want)
	}
	public, err := s.GenerateWithFlowSeeds(class, seeds)
	if err != nil {
		t.Fatal(err)
	}
	want := pcapBytes(t, oracleGenerate(t, s, class, seeds).Flows)
	if !bytes.Equal(pcapBytes(t, res.Flows), want) {
		t.Error("the offline engine's flows differ from the scheduler oracle")
	}
	if !bytes.Equal(pcapBytes(t, public.Flows), want) {
		t.Error("GenerateWithFlowSeeds' flows differ from the scheduler oracle")
	}
}
