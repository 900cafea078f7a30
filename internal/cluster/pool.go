package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"trafficdiff/internal/serve"
)

// PoolConfig parameterizes replica health tracking. Zero values take
// the defaults noted on each field.
type PoolConfig struct {
	// ProbeInterval is how often a healthy replica's /readyz?verbose=1
	// is scraped (default 250ms).
	ProbeInterval time.Duration
	// BackoffMin/BackoffMax bound the exponential re-probe backoff of
	// an ejected replica: first re-probe after BackoffMin, doubling per
	// consecutive failure up to BackoffMax (defaults 250ms, 8s). One
	// successful probe reinstates the replica immediately.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// MaxInFlight bounds the requests the router keeps in flight on one
	// replica; a replica at the bound is skipped during selection
	// (default 32).
	MaxInFlight int
	// Client overrides the probe/proxy HTTP client (tests).
	Client *http.Client
}

// probeTimeout bounds one probe round trip.
const probeTimeout = 2 * time.Second

func (c PoolConfig) withDefaults() PoolConfig {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = 250 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 8 * time.Second
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 32
	}
	return c
}

// replica is one upstream traced instance.
type replica struct {
	id  int
	url string

	mu        sync.Mutex
	healthy   bool              // guarded by mu
	fails     int               // guarded by mu — consecutive probe/proxy failures
	nextProbe time.Time         // guarded by mu — earliest next probe while ejected
	ready     serve.ReadyStatus // guarded by mu — last verbose readiness payload
	lastClass string            // guarded by mu — last class routed here (affinity)
	inFlight  int               // guarded by mu — router-side requests on this replica

	requests  atomic.Int64 // proxied requests attempted
	errors    atomic.Int64 // transport errors + upstream 5xx treated as failures
	status429 atomic.Int64
	status504 atomic.Int64
}

// ReplicaStatus is a point-in-time snapshot of one replica, the input
// to routing scorers and the payload of the router's /replicas
// endpoint.
type ReplicaStatus struct {
	ID      int    `json:"id"`
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// QueueDepth and InFlightFlows come from the replica's last verbose
	// readiness payload; InFlight is the router's own bounded accounting
	// of requests it currently has on this replica.
	QueueDepth       int    `json:"queue_depth"`
	InFlightFlows    int64  `json:"in_flight_flows"`
	InFlight         int    `json:"router_in_flight"`
	CheckpointDigest string `json:"checkpoint_digest,omitempty"`
	DDIMSteps        int    `json:"ddim_steps"`
	LastClass        string `json:"last_class,omitempty"`
	Requests         int64  `json:"requests_total"`
	Errors           int64  `json:"errors_total"`
	Status429        int64  `json:"status_429_total"`
	Status504        int64  `json:"status_504_total"`
}

// Pool tracks the replica set and its health. Replicas are probed on a
// fixed cadence via /readyz?verbose=1; a failed probe (or a transport
// failure observed by the proxy) ejects the replica, and re-probes at
// exponentially backed-off intervals reinstate it on the first
// success.
type Pool struct {
	cfg    PoolConfig
	client *http.Client

	mu       sync.Mutex
	replicas []*replica // guarded by mu
	nextID   int        // guarded by mu

	kick   chan struct{}
	stopCh chan struct{}
	wg     sync.WaitGroup
	probes atomic.Int64
}

// NewPool starts a pool with no replicas and its probe loop running.
// Callers must eventually Close it.
func NewPool(cfg PoolConfig) *Pool {
	cfg = cfg.withDefaults()
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: probeTimeout}
	}
	p := &Pool{
		cfg:    cfg,
		client: client,
		kick:   make(chan struct{}, 1),
		stopCh: make(chan struct{}),
	}
	p.wg.Add(1)
	go p.probeLoop()
	return p
}

// Close stops the probe loop. It does not touch the replicas
// themselves: whoever started them stops them.
func (p *Pool) Close() {
	close(p.stopCh)
	p.wg.Wait()
}

// Add registers a replica by base URL (e.g. "http://127.0.0.1:8080").
// It starts ejected and joins the candidate set at its first
// successful probe, which is triggered immediately.
func (p *Pool) Add(url string) {
	r := &replica{url: url}
	p.mu.Lock()
	r.id = p.nextID
	p.nextID++
	p.replicas = append(p.replicas, r)
	p.mu.Unlock()
	p.Kick()
}

// Kick schedules an immediate probe round (non-blocking).
func (p *Pool) Kick() {
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

// Snapshot returns the current replica set, healthy or not, in id
// order.
func (p *Pool) Snapshot() []ReplicaStatus {
	var out []ReplicaStatus
	for _, r := range p.all() {
		out = append(out, r.status())
	}
	return out
}

// status snapshots one replica.
func (r *replica) status() ReplicaStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ReplicaStatus{
		ID:               r.id,
		URL:              r.url,
		Healthy:          r.healthy,
		QueueDepth:       r.ready.QueueDepth,
		InFlightFlows:    r.ready.InFlightFlows,
		InFlight:         r.inFlight,
		CheckpointDigest: r.ready.CheckpointDigest,
		DDIMSteps:        r.ready.DDIMSteps,
		LastClass:        r.lastClass,
		Requests:         r.requests.Load(),
		Errors:           r.errors.Load(),
		Status429:        r.status429.Load(),
		Status504:        r.status504.Load(),
	}
}

// all returns the replica slice under the pool lock.
func (p *Pool) all() []*replica {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*replica(nil), p.replicas...)
}

// Healthy counts replicas currently in the candidate set.
func (p *Pool) Healthy() int {
	n := 0
	for _, r := range p.all() {
		r.mu.Lock()
		if r.healthy {
			n++
		}
		r.mu.Unlock()
	}
	return n
}

// Size counts all registered replicas, healthy or not.
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.replicas)
}

// CacheCoordinates returns the (checkpoint digest, DDIM steps) pair
// every healthy replica agrees on, or ok=false while replicas
// disagree, report no digest, or none are healthy. The router only
// keys its cache under consensus — a mixed-configuration pool must not
// alias entries.
func (p *Pool) CacheCoordinates() (digest string, ddimSteps int, ok bool) {
	seen := false
	for _, r := range p.all() {
		r.mu.Lock()
		d, steps, healthy := r.ready.CheckpointDigest, r.ready.DDIMSteps, r.healthy
		r.mu.Unlock()
		if !healthy {
			continue
		}
		if d == "" {
			return "", 0, false
		}
		if !seen {
			digest, ddimSteps, seen = d, steps, true
			continue
		}
		if digest != d || ddimSteps != steps {
			return "", 0, false
		}
	}
	return digest, ddimSteps, seen
}

// acquire reserves an in-flight slot on the replica, refusing when it
// is unhealthy or at the per-replica bound.
func (p *Pool) acquire(r *replica) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.healthy || r.inFlight >= p.cfg.MaxInFlight {
		return false
	}
	r.inFlight++
	return true
}

// release returns a slot taken by acquire, recording the class routed
// there for affinity scoring.
func (p *Pool) release(r *replica, class string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.inFlight--
	if class != "" {
		r.lastClass = class
	}
}

// noteProxyFailure records a transport-level proxy failure: the
// replica is ejected exactly as if a probe had failed, so the next
// request doesn't retry a dead upstream before the probe loop notices.
func (p *Pool) noteProxyFailure(r *replica) {
	r.errors.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.healthy = false
	r.fails++
	r.nextProbe = time.Now().Add(p.backoff(r.fails))
}

// backoff maps consecutive failures to the ejection re-probe delay.
func (p *Pool) backoff(fails int) time.Duration {
	d := p.cfg.BackoffMin
	for i := 1; i < fails && d < p.cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > p.cfg.BackoffMax {
		d = p.cfg.BackoffMax
	}
	return d
}

// probeLoop scrapes every replica due for a probe, on the configured
// cadence plus explicit kicks (Add makes one; so may any caller).
func (p *Pool) probeLoop() {
	defer p.wg.Done()
	t := time.NewTicker(p.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-p.stopCh:
			return
		case <-t.C:
		case <-p.kick:
		}
		p.probeDue(time.Now())
	}
}

// probeDue probes, concurrently, every replica whose next probe time
// has arrived (healthy replicas are always due).
func (p *Pool) probeDue(now time.Time) {
	var wg sync.WaitGroup
	for _, r := range p.all() {
		r.mu.Lock()
		due := r.healthy || !now.Before(r.nextProbe)
		r.mu.Unlock()
		if !due {
			continue
		}
		wg.Add(1)
		go func(r *replica) {
			defer wg.Done()
			p.probeOne(r)
		}(r)
	}
	wg.Wait()
	p.probes.Add(1)
}

// probeOne scrapes one replica's verbose readiness and applies the
// outcome: success reinstates (or refreshes) it, failure ejects it
// with exponential backoff.
func (p *Pool) probeOne(r *replica) {
	st, err := p.fetchReady(r.url)
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.healthy = false
		r.fails++
		r.nextProbe = time.Now().Add(p.backoff(r.fails))
		return
	}
	r.healthy = true
	r.fails = 0
	r.ready = *st
}

// fetchReady performs one verbose readiness scrape.
func (p *Pool) fetchReady(base string) (*serve.ReadyStatus, error) {
	resp, err := p.client.Get(base + "/readyz?verbose=1")
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("readyz: status %d", resp.StatusCode)
	}
	return decodeReady(body)
}

// decodeReady decodes a verbose readiness body. A replica's load is
// never below zero, so negative QueueDepth and InFlightFlows (a buggy
// or lying replica) read as 0: left negative they would make the
// queue-depth score exceed 1, or be infinite, and win every pick.
func decodeReady(body []byte) (*serve.ReadyStatus, error) {
	var st serve.ReadyStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("readyz: decoding body: %w", err)
	}
	st.QueueDepth = max(st.QueueDepth, 0)
	st.InFlightFlows = max(st.InFlightFlows, 0)
	return &st, nil
}
