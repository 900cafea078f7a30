package serve

import (
	"context"
	"sync"
)

// gateOutcome is the result of one admission attempt.
type gateOutcome int

const (
	gateOK gateOutcome = iota
	gateFull
	gateClosed
)

// gate is a tier's backpressure boundary and drain barrier: a closable
// counting limit on the requests concurrently inside it. Unlike a
// queue it holds no work — requests past the gate drive their own
// generation — so closing it refuses new arrivals without stranding
// anything, and wait returns once the last slot holder has left.
type gate struct {
	mu     sync.Mutex
	n      int
	limit  int // <= 0: no limit
	closed bool
	idle   chan struct{} // closed once the gate is closed and empty
}

func newGate(limit int) *gate {
	return &gate{limit: limit, idle: make(chan struct{})}
}

// acquire takes a slot, or reports why it could not.
func (g *gate) acquire() gateOutcome {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return gateClosed
	}
	if g.limit > 0 && g.n >= g.limit {
		return gateFull
	}
	g.n++
	return gateOK
}

// release returns a slot taken by a successful acquire.
func (g *gate) release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n--
	g.signalIdle()
}

// depth reports the slots currently held.
func (g *gate) depth() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

// close makes every future acquire return gateClosed. Idempotent;
// held slots are unaffected.
func (g *gate) close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.closed {
		g.closed = true
		g.signalIdle()
	}
}

// isClosed reports whether close has been called.
func (g *gate) isClosed() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.closed
}

// signalIdle closes idle once the gate is closed and empty; a closed
// gate's count only falls, so it fires once. Callers hold mu.
func (g *gate) signalIdle() {
	if g.closed && g.n == 0 {
		close(g.idle)
	}
}

// wait blocks until the gate is closed and every held slot has been
// released, or returns ctx's error first.
func (g *gate) wait(ctx context.Context) error {
	select {
	case <-g.idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
