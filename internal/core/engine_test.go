package core

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEngineMatchesDirectGenerate is the engine's bit-identity
// contract: concurrent staggered Generate calls through the shared
// continuous batch return byte-for-byte what GenerateWithFlowSeeds
// returns for the same seeds, regardless of which requests shared
// denoiser forwards.
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
		want, err := s.GenerateWithFlowSeeds(r.class, r.seeds)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[i], pcapBytes(t, want.Flows)) {
			t.Errorf("request %d (%s, %d flows): engine bytes differ from direct GenerateWithFlowSeeds",
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
// and never races the clock.
func TestEngineStepRowsPreemptsBulk(t *testing.T) {
	s := sharedSynth(t)
	eng, err := NewEngine(s, EngineConfig{MaxInFlight: 17, MaxStepRows: 1})
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
			eng.mu.Lock()
			queued := len(eng.pending)
			eng.mu.Unlock()
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

// TestEngineCloseDrains submits a burst, closes, and checks every
// request was answered and new submissions are refused.
func TestEngineCloseDrains(t *testing.T) {
	s := sharedSynth(t)
	eng, err := NewEngine(s, EngineConfig{MaxInFlight: 16})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	errs := make(chan error, n)
	admits := make(chan struct{}, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := eng.Generate(context.Background(), sharedClass[i%2],
				DeriveFlowSeeds(uint64(i), 2), func() { admits <- struct{}{} })
			errs <- err
		}(i)
	}
	// Close once the whole burst is admitted and mid-denoise: drain
	// must answer all of it.
	for i := 0; i < n; i++ {
		<-admits
	}
	eng.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("request during drain: %v", err)
		}
	}
	if _, err := eng.Generate(context.Background(), sharedClass[0], []uint64{1}, nil); err == nil {
		t.Error("Generate after Close succeeded, want error")
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

// TestEngineOversizedRequest checks FIFO-stop admission: a request
// larger than MaxInFlight still runs (alone) instead of deadlocking.
func TestEngineOversizedRequest(t *testing.T) {
	s := sharedSynth(t)
	eng, err := NewEngine(s, EngineConfig{MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	seeds := DeriveFlowSeeds(99, 5)
	res, err := eng.Generate(context.Background(), sharedClass[0], seeds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 5 {
		t.Fatalf("got %d flows, want 5", len(res.Flows))
	}
	want, err := s.GenerateWithFlowSeeds(sharedClass[0], seeds)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pcapBytes(t, res.Flows), pcapBytes(t, want.Flows)) {
		t.Error("oversized request bytes differ from direct generation")
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
// matches its direct generation.
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
		want, err := s.GenerateWithFlowSeeds(sharedClass[i%2], DeriveFlowSeeds(uint64(500+i), 2))
		if err != nil {
			t.Fatal(err)
		}
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
