package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"trafficdiff/internal/core"
	"trafficdiff/internal/flow"
	"trafficdiff/internal/nprint"
	"trafficdiff/internal/packet"
	"trafficdiff/internal/serve"
)

// pureEngine is a serve.Engine whose output is a pure function of
// (class, seeds): the property the response cache's correctness rests
// on. It also exposes a DDIM budget the way core.Engine does, so serve
// reports it on /readyz?verbose=1 and response headers.
type pureEngine struct {
	classes []string
	ddim    int
}

func (e *pureEngine) Classes() []string       { return append([]string(nil), e.classes...) }
func (e *pureEngine) Stats() core.EngineStats { return core.EngineStats{} }
func (e *pureEngine) DDIMSteps() int          { return e.ddim }
func (e *pureEngine) Generate(ctx context.Context, class string, seeds []uint64, onAdmit func()) (*core.GenerateResult, error) {
	if onAdmit != nil {
		onAdmit()
	}
	res := &core.GenerateResult{}
	for _, s := range seeds {
		data := make([]byte, 16)
		binary.BigEndian.PutUint64(data, s)
		data[8] = byte(e.ddim) // DDIM budget shapes the bytes, as sampling depth does in the real engine
		res.Flows = append(res.Flows, &flow.Flow{
			Label:   class,
			Packets: []*packet.Packet{{Timestamp: time.Unix(0, 0).UTC(), Data: data}},
		})
		res.Matrices = append(res.Matrices, nprint.NewMatrix(1))
	}
	return res, nil
}

// newServeReplica stands up a real serve.Server over a pureEngine.
func newServeReplica(t *testing.T, digest string, ddim int, seedBase uint64) *httptest.Server {
	t.Helper()
	s := serve.NewWithEngine(
		&pureEngine{classes: []string{"web", "video"}, ddim: ddim},
		serve.Config{CheckpointDigest: digest, SeedBase: seedBase},
	)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestCacheHitByteIdentity is the cache-correctness property test: for
// every (class, count, seed, format, DDIM budget) coordinate, the
// router's cache hit must be byte-identical both to its own first
// (replica-served) response and to a direct replica round trip — over
// real serve.Server replicas, not fakes.
func TestCacheHitByteIdentity(t *testing.T) {
	for _, ddim := range []int{6, 12} {
		digest := fmt.Sprintf("sha256:feedface%02d", ddim)
		r1 := newServeReplica(t, digest, ddim, 1)
		r2 := newServeReplica(t, digest, ddim, 2)
		p := newTestPool(t, PoolConfig{})
		p.Add(r1.URL)
		p.Add(r2.URL)
		waitUntil(t, 5*time.Second, "both replicas healthy", func() bool { return p.Healthy() == 2 })
		_, base := newTestRouter(t, p, Config{})

		for _, class := range []string{"web", "video"} {
			for _, count := range []int{1, 3} {
				for _, seed := range []uint64{1, 42, 1 << 40} {
					for _, format := range []string{"pcap", "csv"} {
						req := fmt.Sprintf(`{"class":%q,"count":%d,"seed":%d,"format":%q}`, class, count, seed, format)

						status, missBody, missHdr := postJSON(t, base, req)
						if status != 200 || missHdr.Get("X-Cache") != "miss" {
							t.Fatalf("%s: first request status=%d X-Cache=%q", req, status, missHdr.Get("X-Cache"))
						}

						status, hitBody, hitHdr := postJSON(t, base, req)
						if status != 200 || hitHdr.Get("X-Cache") != "hit" {
							t.Fatalf("%s: repeat status=%d X-Cache=%q", req, status, hitHdr.Get("X-Cache"))
						}
						if !bytes.Equal(missBody, hitBody) {
							t.Fatalf("%s: cache hit differs from replica-served response", req)
						}
						// Every generation header the replica sent is
						// replayed on the hit, whatever the list holds.
						for _, name := range serve.GenerationHeaders {
							if missHdr.Get(name) == "" {
								t.Fatalf("%s: replica sent no %s", req, name)
							}
							if got, want := hitHdr.Get(name), missHdr.Get(name); got != want {
								t.Fatalf("%s: hit %s = %q, miss had %q", req, name, got, want)
							}
						}
						if missHdr.Get("X-Traced-DDIM-Steps") != fmt.Sprint(ddim) || missHdr.Get("X-Traced-Checkpoint") != digest {
							t.Fatalf("%s: replica coordinates %q %q, want %d %q", req,
								missHdr.Get("X-Traced-DDIM-Steps"), missHdr.Get("X-Traced-Checkpoint"), ddim, digest)
						}

						// Direct round trips against both replicas: every
						// replica (and therefore the cache) agrees byte for
						// byte, because seeded generation is pure.
						for _, rep := range []*httptest.Server{r1, r2} {
							status, direct, _ := postJSON(t, rep.URL, req)
							if status != 200 {
								t.Fatalf("%s: direct replica status=%d", req, status)
							}
							if !bytes.Equal(direct, hitBody) {
								t.Fatalf("%s: replica %s round trip differs from cache hit", req, rep.URL)
							}
						}
					}
				}
			}
		}
	}
}

// TestUnseededNeverCached: without a client seed each replica derives
// its own seed chain (SeedBase differs per replica), so responses are
// not content-addressed and must always bypass the cache.
func TestUnseededNeverCached(t *testing.T) {
	digest := "sha256:feedface"
	r1 := newServeReplica(t, digest, 6, 1)
	r2 := newServeReplica(t, digest, 6, 2)
	p := newTestPool(t, PoolConfig{})
	p.Add(r1.URL)
	p.Add(r2.URL)
	waitUntil(t, 5*time.Second, "both replicas healthy", func() bool { return p.Healthy() == 2 })
	_, base := newTestRouter(t, p, Config{})

	req := `{"class":"web","count":1,"format":"pcap"}`
	for i := 0; i < 4; i++ {
		status, _, hdr := postJSON(t, base, req)
		if status != 200 {
			t.Fatalf("unseeded request %d: status=%d", i, status)
		}
		if got := hdr.Get("X-Cache"); got != "miss" {
			t.Fatalf("unseeded request %d served from cache: X-Cache=%q", i, got)
		}
		if hdr.Get("X-Traced-Seed") == "" {
			t.Fatalf("unseeded request %d: replica did not report its derived seed", i)
		}
	}
	m := fetchMetricsMap(t, base)
	if metricInt(t, m, "cache_bypass_total") != 4 {
		t.Fatalf("cache_bypass_total = %d, want 4", metricInt(t, m, "cache_bypass_total"))
	}
	if metricInt(t, m, "cache_hits_total") != 0 {
		t.Fatalf("cache_hits_total = %d, want 0", metricInt(t, m, "cache_hits_total"))
	}
}

// TestServeReadyVerbose locks the replica side of the contract: the
// verbose readiness payload carries exactly the coordinates the router
// keys its cache on.
func TestServeReadyVerbose(t *testing.T) {
	ts := newServeReplica(t, "sha256:cafe", 9, 1)

	// Bare probe keeps the plain-text contract.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != 200 || !strings.Contains(body, "ready") {
		t.Fatalf("bare readyz: %d %q", resp.StatusCode, body)
	}

	resp, err = http.Get(ts.URL + "/readyz?verbose=1")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("verbose readyz Content-Type = %q", ct)
	}
	body = readAll(t, resp)
	for _, want := range []string{
		`"status":"ready"`, `"checkpoint_digest":"sha256:cafe"`, `"ddim_steps":9`,
		`"queue_depth":0`, `"in_flight_flows":0`, `"uptime_ms"`, `"web"`, `"video"`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("verbose readyz missing %s: %s", want, body)
		}
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer func() {
		if cerr := resp.Body.Close(); cerr != nil {
			t.Error(cerr)
		}
	}()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}
