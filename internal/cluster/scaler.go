package cluster

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Proc is one spawned replica process, as returned by a SpawnFunc.
type Proc struct {
	// URL is the replica's base URL.
	URL string
	// Stop drains the process gracefully (SIGTERM + wait) within the
	// context's budget.
	Stop func(context.Context) error
	// Exited, when non-nil, is closed when the process exits on its
	// own. The scaler reaps such a replica from the managed set and the
	// pool, so the Min-deficit path respawns a replacement instead of
	// counting a corpse toward the managed total forever.
	Exited <-chan struct{}
}

// SpawnFunc starts one replica process.
type SpawnFunc func(ctx context.Context) (*Proc, error)

// ScalerConfig parameterizes the autoscale loop. Zero values take the
// defaults noted on each field.
type ScalerConfig struct {
	// Min/Max bound the managed replica count (defaults 1, 4).
	Min, Max int
	// Interval is the decision cadence (default 500ms).
	Interval time.Duration
	// ScaleUpLoad is the average per-healthy-replica load — replica
	// queue depth + in-flight flows + router-side in-flight — above
	// which ticks count toward a scale-up (default 4).
	ScaleUpLoad float64
	// UpTicks is how many consecutive loaded ticks trigger one
	// scale-up (default 2); DownTicks how many consecutive idle ticks
	// (zero aggregate load) trigger one drain (default 20). Scaling
	// one step per trigger with the counters reset keeps the loop from
	// flapping through the whole range on a single burst.
	UpTicks, DownTicks int
	// DrainTimeout bounds one graceful stop (default 30s).
	DrainTimeout time.Duration
	// Spawn starts a replica (required). TracedSpawner builds one over
	// the real binary.
	Spawn SpawnFunc
	// Logf, when set, receives scaling decisions for the operator log.
	Logf func(format string, args ...any)
}

// spawnTimeout bounds one replica start.
const spawnTimeout = 60 * time.Second

func (c ScalerConfig) withDefaults() ScalerConfig {
	if c.Min <= 0 {
		c.Min = 1
	}
	if c.Max < c.Min {
		c.Max = c.Min
	}
	if c.Interval <= 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.ScaleUpLoad <= 0 {
		c.ScaleUpLoad = 4
	}
	if c.UpTicks <= 0 {
		c.UpTicks = 2
	}
	if c.DownTicks <= 0 {
		c.DownTicks = 20
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// scaleAction is one tick's verdict.
type scaleAction int

const (
	scaleHold scaleAction = iota
	scaleUp
	scaleDown
)

// scaleState is the loop's tick-counter memory.
type scaleState struct {
	hiTicks int // consecutive ticks above ScaleUpLoad
	loTicks int // consecutive ticks at zero load
}

// decide is the pure autoscale policy: given the managed replica count,
// the healthy count, and this tick's aggregate load (replica queue
// depth + in-flight flows + router in-flight, summed), it updates the
// tick counters and returns the action. Deficit below Min always
// scales up immediately; load-driven scale-up needs UpTicks
// consecutive loaded ticks and headroom under Max; scale-down needs
// DownTicks consecutive idle ticks and slack above Min.
func decide(cfg ScalerConfig, st *scaleState, managed, healthy int, aggLoad float64) scaleAction {
	if managed < cfg.Min {
		return scaleUp
	}
	avg := aggLoad
	if healthy > 0 {
		avg = aggLoad / float64(healthy)
	}
	switch {
	case healthy > 0 && avg >= cfg.ScaleUpLoad:
		st.hiTicks++
		st.loTicks = 0
		if st.hiTicks >= cfg.UpTicks && managed < cfg.Max {
			st.hiTicks = 0
			return scaleUp
		}
	case healthy > 0 && aggLoad <= 0:
		st.loTicks++
		st.hiTicks = 0
		if st.loTicks >= cfg.DownTicks && managed > cfg.Min {
			st.loTicks = 0
			return scaleDown
		}
	default:
		st.hiTicks = 0
		st.loTicks = 0
	}
	return scaleHold
}

// Scaler owns the managed replica processes and the autoscale loop:
// it watches the pool's aggregate queue-depth metrics and starts or
// drains local traced children between Min and Max replicas. Drains
// remove the replica from the pool first (no new routes), then SIGTERM
// the child so its own graceful path finishes in-flight work.
type Scaler struct {
	pool *Pool
	cfg  ScalerConfig

	mu    sync.Mutex
	procs []*Proc    // guarded by mu — LIFO; newest drained first
	state scaleState // guarded by mu (loop-only, but Close races the loop)

	stopCh chan struct{}
	wg     sync.WaitGroup

	scaleUps   atomic.Int64
	scaleDowns atomic.Int64
}

// NewScaler starts the autoscale loop over pool. Callers must
// eventually Close it, which drains every managed child.
func NewScaler(pool *Pool, cfg ScalerConfig) (*Scaler, error) {
	cfg = cfg.withDefaults()
	if cfg.Spawn == nil {
		return nil, fmt.Errorf("cluster: ScalerConfig.Spawn is required")
	}
	s := &Scaler{pool: pool, cfg: cfg, stopCh: make(chan struct{})}
	s.wg.Add(1)
	go s.loop()
	return s, nil
}

// Counts reports managed replicas and lifetime scale events.
func (s *Scaler) Counts() (managed int, ups, downs int64) {
	s.mu.Lock()
	managed = len(s.procs)
	s.mu.Unlock()
	return managed, s.scaleUps.Load(), s.scaleDowns.Load()
}

// Close stops the loop and drains every managed replica concurrently.
func (s *Scaler) Close() {
	close(s.stopCh)
	s.wg.Wait()
	s.mu.Lock()
	procs := s.procs
	s.procs = nil
	s.mu.Unlock()
	var wg sync.WaitGroup
	for _, p := range procs {
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			s.pool.Remove(p.URL)
			ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
			defer cancel()
			if err := p.Stop(ctx); err != nil {
				s.cfg.Logf("scaler: draining %s: %v", p.URL, err)
			}
		}(p)
	}
	wg.Wait()
}

// loop ticks the autoscale policy.
func (s *Scaler) loop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
		}
		s.tick()
	}
}

// tick gathers one load sample and applies the policy's verdict.
func (s *Scaler) tick() {
	healthy, agg := 0, 0.0
	for _, st := range s.pool.Snapshot() {
		if !st.Healthy {
			continue
		}
		healthy++
		agg += float64(st.QueueDepth) + float64(st.InFlightFlows) + float64(st.InFlight)
	}
	s.mu.Lock()
	managed := len(s.procs)
	action := decide(s.cfg, &s.state, managed, healthy, agg)
	s.mu.Unlock()
	switch action {
	case scaleUp:
		s.spawnOne(managed, healthy, agg)
	case scaleDown:
		s.drainOne(agg)
	}
}

// spawnOne starts one replica and registers it with the pool.
func (s *Scaler) spawnOne(managed, healthy int, agg float64) {
	ctx, cancel := context.WithTimeout(context.Background(), spawnTimeout)
	defer cancel()
	p, err := s.cfg.Spawn(ctx)
	if err != nil {
		s.cfg.Logf("scaler: spawn failed: %v", err)
		return
	}
	s.mu.Lock()
	s.procs = append(s.procs, p)
	n := len(s.procs)
	s.mu.Unlock()
	s.scaleUps.Add(1)
	s.pool.Add(p.URL)
	if p.Exited != nil {
		s.wg.Add(1)
		go s.watchExit(p)
	}
	s.cfg.Logf("scaler: scaled up to %d replicas (%s; healthy %d, aggregate load %.1f)", n, p.URL, healthy, agg)
}

// watchExit reaps a managed child that exits on its own: the replica
// leaves the pool and the managed set at once, so the next tick's
// Min-deficit check respawns a replacement. Pool removal happens first
// so a respawn triggered by the shrunken managed count never races a
// stale pool entry.
func (s *Scaler) watchExit(p *Proc) {
	defer s.wg.Done()
	select {
	case <-s.stopCh:
		// Close owns the remaining procs and drains them itself.
		return
	case <-p.Exited:
	}
	s.pool.Remove(p.URL)
	if s.removeProc(p) {
		s.cfg.Logf("scaler: replica %s exited unexpectedly; reaped (respawn on next tick)", p.URL)
	}
}

// removeProc drops p from the managed set; false when a drain or Close
// already popped it.
func (s *Scaler) removeProc(p *Proc) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, q := range s.procs {
		if q == p {
			s.procs = append(s.procs[:i], s.procs[i+1:]...)
			return true
		}
	}
	return false
}

// drainOne withdraws the newest replica from the pool and stops it
// gracefully.
func (s *Scaler) drainOne(agg float64) {
	p, n := s.popNewest()
	if p == nil {
		return
	}
	s.scaleDowns.Add(1)
	s.pool.Remove(p.URL)
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	if err := p.Stop(ctx); err != nil {
		s.cfg.Logf("scaler: draining %s: %v", p.URL, err)
		return
	}
	s.cfg.Logf("scaler: scaled down to %d replicas (aggregate load %.1f)", n, agg)
}

// popNewest removes and returns the most recently spawned replica
// (LIFO) along with the remaining managed count; nil when none.
func (s *Scaler) popNewest() (*Proc, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.procs) == 0 {
		return nil, 0
	}
	p := s.procs[len(s.procs)-1]
	s.procs = s.procs[:len(s.procs)-1]
	return p, len(s.procs)
}

// TracedSpawner builds a SpawnFunc over the real traced binary: the
// n-th spawn (from 1) starts `bin -model model -addr 127.0.0.1:0
// <extraArgs...> -seed-base n`, reads the machine-parseable
// "ADDR=host:port" line traced prints on stdout once its listener is
// up, and returns a Proc whose Stop SIGTERMs the child (traced's
// graceful drain path) and waits for exit. The distinct -seed-base
// comes last so it wins: replicas sharing one would answer their k-th
// unseeded requests with identical flows. The child's stderr passes
// through to the router's, so startup errors and crash reasons stay
// diagnosable.
func TracedSpawner(bin, model string, extraArgs []string) SpawnFunc {
	var spawned atomic.Uint64
	return func(ctx context.Context) (*Proc, error) {
		args := append([]string{"-model", model, "-addr", "127.0.0.1:0"}, extraArgs...)
		args = append(args, "-seed-base", strconv.FormatUint(spawned.Add(1), 10))
		cmd := exec.Command(bin, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		done := make(chan error, 1)
		exited := make(chan struct{})
		go func() {
			done <- cmd.Wait() // buffered: the send precedes the close
			close(exited)
		}()

		addrCh := make(chan string, 1)
		go func() {
			sc := bufio.NewScanner(stdout)
			for sc.Scan() {
				if addr, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "ADDR="); ok {
					addrCh <- addr
					break
				}
			}
			close(addrCh)
		}()

		kill := func() {
			// Startup failed; nothing is listening, so hard-kill is safe.
			_ = cmd.Process.Kill()
			<-done
		}
		select {
		case addr, ok := <-addrCh:
			if !ok || addr == "" {
				kill()
				return nil, fmt.Errorf("cluster: %s exited before printing ADDR=", bin)
			}
			stop := func(ctx context.Context) error {
				if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
					// The child is already gone (a crash the exit watcher
					// reaped); its wait result is the real verdict.
					select {
					case werr := <-done:
						return werr
					case <-ctx.Done():
						return err
					}
				}
				select {
				case err := <-done:
					return err
				case <-ctx.Done():
					// Drain budget exhausted; reap the child hard.
					_ = cmd.Process.Kill()
					<-done
					return ctx.Err()
				}
			}
			return &Proc{URL: "http://" + addr, Stop: stop, Exited: exited}, nil
		case err := <-done:
			return nil, fmt.Errorf("cluster: %s exited before printing ADDR=: %v", bin, err)
		case <-ctx.Done():
			kill()
			return nil, fmt.Errorf("cluster: spawning %s: %w", bin, ctx.Err())
		}
	}
}
