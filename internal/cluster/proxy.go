package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"

	"trafficdiff/internal/serve"
)

// Config parameterizes a Router. Zero values take the defaults noted
// on each field.
type Config struct {
	// Scorers is the weighted routing policy (ParseScorers). Nil
	// selects the default "class-affinity:3,queue-depth:2".
	Scorers []WeightedScorer
	// CacheEntries / CacheBytes bound the content-addressed response
	// cache (defaults 4096 entries, 256 MiB). CacheEntries < 0
	// disables caching entirely.
	CacheEntries int
	CacheBytes   int64
	// ValidateEvery, when positive, re-fetches every Nth cache hit
	// from a replica and asserts byte-identity against the cached
	// body; a mismatch invalidates the entry, serves the replica's
	// bytes, and increments cache_validation_mismatches_total.
	ValidateEvery int
}

// maxBodyBytes bounds a /v1/generate request body.
const maxBodyBytes = 1 << 20

// Router is the cluster front tier: it terminates /v1/generate,
// serves repeat seeded requests from the content-addressed cache, and
// spreads the rest over the pool's healthy replicas under the
// configured scoring policy, with honest backpressure propagation
// (see mapFailure for the status-mapping table). Its HTTP shell is
// traced's, with an unlimited gate; Shutdown leaves the replicas alone.
type Router struct {
	*serve.Shell
	pool   *Pool
	cfg    Config
	cache  *Cache
	met    *routerMetrics
	client *http.Client

	hitCtr atomic.Uint64
}

// NewRouter builds a Router over a caller-owned pool (the caller
// closes the pool after Shutdown).
func NewRouter(pool *Pool, cfg Config) *Router {
	if cfg.Scorers == nil {
		cfg.Scorers = defaultPolicy
	}
	var cache *Cache
	if cfg.CacheEntries >= 0 {
		cache = NewCache(cfg.CacheEntries, cfg.CacheBytes)
	}
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = 64
	rt := &Router{
		Shell: serve.NewShell(0),
		pool:  pool,
		cfg:   cfg,
		cache: cache,
		// No client timeout: per-request deadlines belong to the
		// caller and the replicas' own RequestTimeout bounds work.
		client: &http.Client{Transport: transport},
	}
	rt.met = newRouterMetrics(rt.Shell, pool, cache)
	rt.HandleFunc("/v1/generate", rt.handleGenerate)
	rt.HandleFunc("/readyz", rt.handleReadyz)
	rt.HandleFunc("/replicas", rt.handleReplicas)
	return rt
}

func (rt *Router) handleGenerate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if !rt.Enter() {
		rt.WriteDraining(w)
		return
	}
	defer rt.Leave()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	// The replica's own request type and defaults, so the cache key is
	// exactly what the replica generates; unknown fields pass through
	// untouched in the raw body.
	var gr serve.GenerateRequest
	if err := json.Unmarshal(body, &gr); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	gr = gr.WithDefaults()
	rt.met.requests.Add(1)

	// Cache lookup: only seeded requests are content-addressed, and
	// only while every healthy replica agrees on (digest, DDIM steps)
	// — a mixed pool must not alias entries across configurations.
	var key CacheKey
	cacheable := false
	if gr.Seed != nil && rt.cache != nil {
		if digest, ddim, ok := rt.pool.CacheCoordinates(); ok {
			key = CacheKey{
				Digest: digest, Class: gr.Class, Count: gr.Count,
				Seed: *gr.Seed, DDIMSteps: ddim, Format: gr.Format,
			}
			cacheable = true
		}
	}
	if gr.Seed == nil {
		rt.met.cacheBypass.Add(1)
	}
	if cacheable {
		if ent, ok := rt.cache.Get(key); ok {
			rt.met.cacheHits.Add(1)
			if rt.cfg.ValidateEvery > 0 && rt.hitCtr.Add(1)%uint64(rt.cfg.ValidateEvery) == 0 {
				rt.validateHit(w, r, gr, body, key, ent)
				return
			}
			rt.writeCached(w, ent, "hit")
			return
		}
		rt.met.cacheMisses.Add(1)
	}
	rt.proxy(w, r, gr, body, key, cacheable)
}

// proxy runs the attempt loop over scored candidates and writes the
// outcome (success passthrough or the status-mapping table's verdict).
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, gr serve.GenerateRequest, body []byte, key CacheKey, cacheable bool) {
	tried := map[int]bool{}
	fail := routeFailure{Healthy: rt.pool.Healthy()}
	for {
		rep := rt.next(gr.Class, tried)
		if rep == nil {
			break
		}
		tried[rep.id] = true
		fail.Attempts++
		status, hdr, respBody, err := rt.forward(r.Context(), rep, gr.Class, body)
		if err != nil {
			if r.Context().Err() != nil {
				// The client went away (disconnect or deadline), which
				// fails client.Do no matter how healthy the replica is.
				// Ejecting here — and then retrying every remaining
				// replica with the same dead context — would let one
				// impatient client empty the candidate set, so give up
				// without blaming anyone.
				rt.met.clientAborts.Add(1)
				return
			}
			// Transport failure: eject the replica so later requests
			// don't re-dial a dead upstream before the probe notices.
			rt.pool.noteProxyFailure(rep)
			fail.SawTransport = true
			rt.met.retries.Add(1)
			continue
		}
		switch {
		case status == http.StatusOK:
			if cacheable {
				rt.storeResponse(key, hdr, respBody)
			}
			rt.writeUpstream(w, status, hdr, respBody, rep.url)
			rt.met.completed.Add(1)
			return
		case status == http.StatusTooManyRequests:
			rep.status429.Add(1)
			fail.Saw429 = true
			if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err == nil && ra > fail.MaxRetryAfter {
				fail.MaxRetryAfter = ra
			}
			rt.met.retries.Add(1)
			continue
		case status == http.StatusGatewayTimeout:
			// The request's own deadline expired inside the replica;
			// retrying elsewhere could only blow it further. Verbatim.
			rep.status504.Add(1)
			rt.met.mapped504.Add(1)
			rt.writeUpstream(w, status, hdr, respBody, rep.url)
			return
		case status >= 500:
			// The replica answered, so it is alive — no ejection — but
			// this request deserves a different one.
			rep.errors.Add(1)
			fail.SawTransport = true
			rt.met.retries.Add(1)
			continue
		default:
			// Client errors (bad class, bad count, …) are the same on
			// every replica.
			rt.writeUpstream(w, status, hdr, respBody, rep.url)
			return
		}
	}
	status, retryAfter := mapFailure(fail)
	switch status {
	case http.StatusTooManyRequests:
		rt.met.mapped429.Add(1)
	case http.StatusServiceUnavailable:
		rt.met.rejected.Add(1)
	default:
		rt.met.mapped502.Add(1)
	}
	if retryAfter != "" {
		w.Header().Set("Retry-After", retryAfter)
	}
	http.Error(w, failureBody(status, fail), status)
}

// routeFailure summarizes an attempt loop that produced no response to
// pass through.
type routeFailure struct {
	// Healthy is the healthy-replica count when routing began.
	Healthy int
	// Attempts counts upstream requests actually made.
	Attempts int
	// Saw429 records that at least one replica shed the request;
	// MaxRetryAfter is the largest Retry-After (seconds) seen on one.
	Saw429        bool
	MaxRetryAfter int
	// SawTransport records connect/transport failures or upstream 5xx.
	SawTransport bool
}

// mapFailure is the router's status-mapping table for exhausted
// attempt loops:
//
//	all attempts 429 (even mixed with transport failures) → 429 with
//	  the max Retry-After seen — backpressure propagates as
//	  backpressure, never as 502
//	no healthy replica to try                             → 503 + Retry-After
//	healthy replicas all at the router in-flight bound    → 429 + Retry-After
//	only transport failures / upstream 5xx                → 502
func mapFailure(f routeFailure) (status int, retryAfter string) {
	switch {
	case f.Saw429:
		ra := f.MaxRetryAfter
		if ra < 1 {
			ra = 1
		}
		return http.StatusTooManyRequests, strconv.Itoa(ra)
	case f.Attempts == 0 && f.Healthy == 0:
		return http.StatusServiceUnavailable, "1"
	case f.Attempts == 0:
		return http.StatusTooManyRequests, "1"
	default:
		return http.StatusBadGateway, ""
	}
}

// failureBody renders the mapped failure for the response body.
func failureBody(status int, f routeFailure) string {
	switch status {
	case http.StatusTooManyRequests:
		return "cluster at capacity"
	case http.StatusServiceUnavailable:
		return "no healthy replicas"
	default:
		return fmt.Sprintf("all %d replica attempts failed", f.Attempts)
	}
}

// next ranks the untried replicas under the routing policy and
// reserves the best one that still has in-flight headroom. Nil when no
// candidate can be reserved.
func (rt *Router) next(class string, tried map[int]bool) *replica {
	var cands []*replica
	var stats []ReplicaStatus
	for _, r := range rt.pool.all() {
		if tried[r.id] {
			continue
		}
		st := r.status()
		if !st.Healthy {
			continue
		}
		cands = append(cands, r)
		stats = append(stats, st)
	}
	if len(cands) == 0 {
		return nil
	}
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	scores := make([]float64, len(cands))
	for i, st := range stats {
		scores[i] = scoreReplica(rt.cfg.Scorers, class, st)
	}
	sort.SliceStable(order, func(a, b int) bool {
		if scores[order[a]] != scores[order[b]] { //tracelint:allow floateq — exact tie detection for deterministic id ordering, not numeric comparison
			return scores[order[a]] > scores[order[b]]
		}
		return cands[order[a]].id < cands[order[b]].id
	})
	for _, i := range order {
		if rt.pool.acquire(cands[i]) {
			return cands[i]
		}
	}
	return nil
}

// forward issues the upstream request on a replica reserved by next,
// reads the full response, and releases the reservation.
func (rt *Router) forward(ctx context.Context, rep *replica, class string, body []byte) (int, http.Header, []byte, error) {
	rep.requests.Add(1)
	defer rt.pool.release(rep, class)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.url+"/v1/generate", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	data, err := readBody(resp)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, data, nil
}

// maxPresizedBody is the largest declared Content-Length readBody
// allocates up front.
const maxPresizedBody = 1 << 20

// readBody reads an upstream body into a buffer of exactly its declared
// length when that is at most maxPresizedBody, so a cached entry keeps
// no spare capacity; a body that ends short of its length is an error
// (io.ErrUnexpectedEOF). An unknown or larger length grows through
// io.ReadAll instead, so a replica that declares a huge length cannot
// make the router allocate it before any byte arrives.
func readBody(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && n <= maxPresizedBody {
		data := make([]byte, n)
		_, err := io.ReadFull(resp.Body, data)
		return data, err
	}
	return io.ReadAll(resp.Body)
}

// storeResponse caches a successful seeded response, but only when the
// replica's cache-validation headers confirm it was generated from
// exactly the coordinates the key claims — a replica that changed
// checkpoints between the probe and the response must not poison the
// cache.
func (rt *Router) storeResponse(key CacheKey, hdr http.Header, body []byte) {
	if hdr.Get("X-Traced-Checkpoint") != key.Digest ||
		hdr.Get("X-Traced-DDIM-Steps") != strconv.Itoa(key.DDIMSteps) {
		rt.met.coordMismatches.Add(1)
		return
	}
	ent := &CachedResponse{Body: body}
	for i, name := range serve.GenerationHeaders {
		ent.Headers[i] = hdr.Get(name)
	}
	rt.cache.Put(key, ent)
}

// validateHit re-fetches a cache hit from a replica and asserts
// byte-identity. On a mismatch the entry is dropped, the replica's
// bytes are served, and the mismatch is counted; if no replica can
// answer, the cached bytes are served as usual.
func (rt *Router) validateHit(w http.ResponseWriter, r *http.Request, gr serve.GenerateRequest, body []byte, key CacheKey, ent *CachedResponse) {
	rt.met.validations.Add(1)
	rep := rt.next(gr.Class, map[int]bool{})
	if rep == nil {
		rt.writeCached(w, ent, "hit")
		return
	}
	status, hdr, respBody, err := rt.forward(r.Context(), rep, gr.Class, body)
	if err != nil || status != http.StatusOK {
		rt.writeCached(w, ent, "hit")
		return
	}
	if !bytes.Equal(respBody, ent.Body) {
		rt.met.validationMismatches.Add(1)
		rt.cache.Drop(key)
		rt.writeUpstream(w, status, hdr, respBody, rep.url)
		return
	}
	rt.writeCached(w, ent, "hit-validated")
}

// writeCached replays a cache entry.
func (rt *Router) writeCached(w http.ResponseWriter, ent *CachedResponse, verdict string) {
	h := w.Header()
	for i, name := range serve.GenerationHeaders {
		if v := ent.Headers[i]; v != "" {
			h.Set(name, v)
		}
	}
	h.Set("Content-Length", strconv.Itoa(len(ent.Body)))
	h.Set("X-Cache", verdict)
	rt.WriteBody(w, ent.Body)
	rt.met.completed.Add(1)
}

// writeUpstream passes a replica response through, preserving its
// generation headers and any Retry-After.
func (rt *Router) writeUpstream(w http.ResponseWriter, status int, hdr http.Header, body []byte, replicaURL string) {
	h := w.Header()
	if v := hdr.Get("Retry-After"); v != "" {
		h.Set("Retry-After", v)
	}
	for _, name := range serve.GenerationHeaders {
		if v := hdr.Get(name); v != "" {
			h.Set(name, v)
		}
	}
	h.Set("Content-Length", strconv.Itoa(len(body)))
	h.Set("X-Cache", "miss")
	h.Set("X-Cluster-Replica", replicaURL)
	w.WriteHeader(status)
	rt.WriteBody(w, body)
}

// readyPayload is the JSON body of the router's /readyz?verbose=1.
type readyPayload struct {
	Status   string          `json:"status"`
	Healthy  int             `json:"healthy_replicas"`
	Replicas []ReplicaStatus `json:"replicas"`
}

func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	healthy := rt.pool.Healthy()
	status, code := "ready", http.StatusOK
	switch {
	case rt.Draining():
		status, code = "draining", http.StatusServiceUnavailable
	case healthy == 0:
		status, code = "no healthy replicas", http.StatusServiceUnavailable
	}
	if r.URL.Query().Get("verbose") != "1" {
		rt.WriteText(w, code, status)
		return
	}
	rt.WriteJSON(w, code, readyPayload{Status: status, Healthy: healthy, Replicas: rt.pool.Snapshot()})
}

func (rt *Router) handleReplicas(w http.ResponseWriter, r *http.Request) {
	rt.WriteJSON(w, http.StatusOK, rt.pool.Snapshot())
}

// routerMetrics is the router's instrumentation, registered in the
// shell's expvar map.
type routerMetrics struct {
	requests     *expvar.Int // requests_total
	completed    *expvar.Int // completed_total
	rejected     *expvar.Int // rejected_total (503, no healthy replica)
	retries      *expvar.Int // retries_total (failed attempts that moved on)
	clientAborts *expvar.Int // client_aborts_total (client gone mid-proxy)
	mapped429    *expvar.Int // mapped_429_total (aggregate backpressure)
	mapped502    *expvar.Int // mapped_502_total
	mapped504    *expvar.Int // mapped_504_total (passed-through deadline expiry)
	cacheHits    *expvar.Int // cache_hits_total
	cacheMisses  *expvar.Int // cache_misses_total
	cacheBypass  *expvar.Int // cache_bypass_total (unseeded requests)

	validations          *expvar.Int // cache_validations_total
	validationMismatches *expvar.Int // cache_validation_mismatches_total
	coordMismatches      *expvar.Int // cache_coordinate_mismatches_total
}

// newRouterMetrics registers counters plus live gauges over the pool
// and cache, including the per-upstream 429/504/error counts the
// backpressure story is audited with.
func newRouterMetrics(sh *serve.Shell, pool *Pool, cache *Cache) *routerMetrics {
	m := &routerMetrics{
		requests:             sh.Counter("requests_total"),
		completed:            sh.Counter("completed_total"),
		rejected:             sh.Counter("rejected_total"),
		retries:              sh.Counter("retries_total"),
		clientAborts:         sh.Counter("client_aborts_total"),
		mapped429:            sh.Counter("mapped_429_total"),
		mapped502:            sh.Counter("mapped_502_total"),
		mapped504:            sh.Counter("mapped_504_total"),
		cacheHits:            sh.Counter("cache_hits_total"),
		cacheMisses:          sh.Counter("cache_misses_total"),
		cacheBypass:          sh.Counter("cache_bypass_total"),
		validations:          sh.Counter("cache_validations_total"),
		validationMismatches: sh.Counter("cache_validation_mismatches_total"),
		coordMismatches:      sh.Counter("cache_coordinate_mismatches_total"),
	}
	sh.Gauge("replicas_total", func() any { return pool.Size() })
	sh.Gauge("replicas_healthy", func() any { return pool.Healthy() })
	upstream := func(name string, pick func(ReplicaStatus) int64) {
		sh.Gauge(name, func() any {
			out := map[string]int64{}
			for _, st := range pool.Snapshot() {
				out[st.URL] = pick(st)
			}
			return out
		})
	}
	upstream("upstream_requests_total", func(st ReplicaStatus) int64 { return st.Requests })
	upstream("upstream_429_total", func(st ReplicaStatus) int64 { return st.Status429 })
	upstream("upstream_504_total", func(st ReplicaStatus) int64 { return st.Status504 })
	upstream("upstream_errors_total", func(st ReplicaStatus) int64 { return st.Errors })
	if cache != nil {
		sh.Gauge("cache_entries", func() any { return cache.Stats().Entries })
		sh.Gauge("cache_bytes", func() any { return cache.Stats().Bytes })
		sh.Gauge("cache_evictions_total", func() any { return cache.Stats().Evictions })
	}
	return m
}
