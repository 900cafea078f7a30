package trafficdiff

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"trafficdiff/internal/pcap"
)

// TestClusterEndToEnd drives the full cluster serving stack over the
// real binaries: tracegen writes a checkpoint, two traced replicas
// serve it, and tracerouter spreads load across them, serves repeat
// seeded requests from its content-addressed cache byte-identically,
// survives a replica kill without surfacing 5xx, and drains cleanly on
// SIGTERM. The router only fronts the replicas it is given: without
// -replicas it refuses to start.
// `make cluster-smoke` runs exactly this test.
func TestClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster e2e in -short mode")
	}
	dir := t.TempDir()
	tracegen := dir + "/tracegen"
	traced := dir + "/traced"
	tracerouter := dir + "/tracerouter"
	for bin, pkg := range map[string]string{
		tracegen: "./cmd/tracegen", traced: "./cmd/traced", tracerouter: "./cmd/tracerouter",
	} {
		out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}

	ckpt := dir + "/model.ckpt"
	cmd := exec.Command(tracegen,
		"-classes", "amazon,teams", "-train", "4", "-per-class", "1",
		"-steps", "60", "-rows", "16", "-write-real=false",
		"-out", dir+"/synthetic", "-save", ckpt)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("tracegen: %v\n%s", err, out)
	}

	t.Run("static-spread-cache-failover", func(t *testing.T) {
		// Both replicas found via the machine-parseable ADDR= stdout
		// line — the contract any supervisor starting traced relies on.
		rep0 := startAddrProc(t, traced, "-model", ckpt, "-addr", "127.0.0.1:0")
		defer rep0.kill(t)
		rep1 := startAddrProc(t, traced, "-model", ckpt, "-addr", "127.0.0.1:0")
		defer rep1.kill(t)
		router := startAddrProc(t, tracerouter,
			"-addr", "127.0.0.1:0",
			"-replicas", rep0.url+","+rep1.url,
			"-probe-interval", "50ms")
		defer router.kill(t)
		waitUntil(t, "router sees healthy replicas", func() bool {
			return httpStatus(router.url+"/readyz") == http.StatusOK
		})

		// Class spread under the default affinity policy: amazon warms
		// one replica, teams lands on the other.
		for i := 0; i < 4; i++ {
			for _, class := range []string{"amazon", "teams"} {
				code, body, _, err := postGenerate(router.url, fmt.Sprintf(`{"class":%q,"count":2,"seed":%d}`, class, 100+i))
				if err != nil || code != http.StatusOK {
					t.Fatalf("%s request %d: code=%d err=%v body=%q", class, i, code, err, body)
				}
			}
		}
		perUpstream := upstreamRequests(t, router.url)
		for _, rep := range []*addrProc{rep0, rep1} {
			if perUpstream[rep.url] == 0 {
				t.Fatalf("replica %s never routed to; spread: %v", rep.url, perUpstream)
			}
		}

		// Cache hit: byte-identical to the replica-served response, with
		// zero new upstream requests.
		req := `{"class":"amazon","count":2,"seed":555}`
		code, missBody, hdr, err := postGenerate(router.url, req)
		if err != nil || code != http.StatusOK || hdr.Get("X-Cache") != "miss" {
			t.Fatalf("priming request: code=%d X-Cache=%q err=%v", code, hdr.Get("X-Cache"), err)
		}
		before := upstreamTotal(t, router.url)
		code, hitBody, hdr, err := postGenerate(router.url, req)
		if err != nil || code != http.StatusOK {
			t.Fatalf("repeat request: code=%d err=%v", code, err)
		}
		if hdr.Get("X-Cache") != "hit" {
			t.Fatalf("repeat seeded request X-Cache=%q, want hit", hdr.Get("X-Cache"))
		}
		if !bytes.Equal(missBody, hitBody) {
			t.Fatal("cache hit is not byte-identical to the replica-served response")
		}
		if after := upstreamTotal(t, router.url); after != before {
			t.Fatalf("cache hit touched a replica: upstream requests %d → %d", before, after)
		}
		if rd, err := pcap.NewReader(bytes.NewReader(hitBody)); err != nil {
			t.Fatalf("cached response is not a valid pcap: %v", err)
		} else if recs, err := rd.ReadAll(); err != nil || len(recs) == 0 {
			t.Fatalf("cached pcap: %d records, err %v", len(recs), err)
		}
		// The replica itself agrees byte for byte.
		code, direct, _, err := postGenerate(rep0.url, req)
		if err != nil || code != http.StatusOK {
			t.Fatalf("direct replica request: code=%d err=%v", code, err)
		}
		if !bytes.Equal(direct, hitBody) {
			t.Fatal("direct replica response differs from the router's cached bytes")
		}

		// Unseeded requests bypass the cache every time.
		for i := 0; i < 2; i++ {
			code, _, hdr, err := postGenerate(router.url, `{"class":"teams","count":1}`)
			if err != nil || code != http.StatusOK || hdr.Get("X-Cache") != "miss" {
				t.Fatalf("unseeded request %d: code=%d X-Cache=%q err=%v", i, code, hdr.Get("X-Cache"), err)
			}
		}

		// Kill one replica: requests fail over with no 5xx surfaced —
		// the only statuses the mapping table allows here are 200 (the
		// survivor answers) and 429 (honest backpressure).
		rep0.kill(t)
		for i := 0; i < 20; i++ {
			code, body, _, err := postGenerate(router.url, fmt.Sprintf(`{"class":"amazon","count":1,"seed":%d}`, 9000+i))
			if err != nil {
				t.Fatalf("request %d after replica kill: %v", i, err)
			}
			if code != http.StatusOK && code != http.StatusTooManyRequests {
				t.Fatalf("request %d after replica kill: status %d body %q — 5xx leaked past the mapping table", i, code, body)
			}
		}
		waitUntil(t, "dead replica marked unhealthy", func() bool {
			for _, st := range replicaSnapshots(t, router.url) {
				if st.URL == rep0.url {
					return !st.Healthy
				}
			}
			return false
		})

		// SIGTERM after the failover: the router drains and exits 0.
		if err := router.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := router.wait(60 * time.Second); err != nil {
			t.Fatalf("tracerouter did not exit cleanly after SIGTERM: %v\nstderr:\n%s", err, router.stderr())
		}
		if !strings.Contains(router.stderr(), "drained cleanly") {
			t.Fatalf("missing drain log; stderr:\n%s", router.stderr())
		}
	})

	t.Run("replicas-required", func(t *testing.T) {
		out, err := exec.Command(tracerouter, "-addr", "127.0.0.1:0").CombinedOutput()
		if err == nil || !strings.Contains(string(out), "-replicas") {
			t.Fatalf("tracerouter without -replicas: err=%v output=%q; want a non-zero exit naming -replicas", err, out)
		}
		out, err = exec.Command(tracerouter, "-model", ckpt).CombinedOutput()
		if err == nil || !strings.Contains(string(out), "flag provided but not defined: -model") {
			t.Fatalf("tracerouter -model: err=%v output=%q; want the flag rejected", err, out)
		}
	})
}

// addrProc is a child process located via its machine-parseable
// "ADDR=host:port" stdout line (traced and tracerouter both print one).
type addrProc struct {
	cmd  *exec.Cmd
	url  string
	outB *addrWriter
	errB *plainBuffer
	done chan error
}

// addrWriter scans the child's stdout for the ADDR= line.
type addrWriter struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	found bool
	addr  chan string
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n, err := w.buf.Write(p)
	if !w.found {
		s := w.buf.String()
		if i := strings.Index(s, "ADDR="); i >= 0 {
			rest := s[i+len("ADDR="):]
			if j := strings.IndexByte(rest, '\n'); j >= 0 {
				w.found = true
				w.addr <- strings.TrimSpace(rest[:j])
			}
		}
	}
	return n, err
}

type plainBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *plainBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *plainBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func (p *addrProc) stderr() string { return p.errB.String() }

func (p *addrProc) wait(d time.Duration) error {
	select {
	case err := <-p.done:
		return err
	case <-time.After(d):
		return fmt.Errorf("timeout after %v", d)
	}
}

func (p *addrProc) kill(t *testing.T) {
	t.Helper()
	select {
	case <-p.done: // already exited
		return
	default:
	}
	if err := p.cmd.Process.Kill(); err == nil {
		<-p.done
	}
}

// startAddrProc launches bin and waits for its ADDR= stdout line.
func startAddrProc(t *testing.T, bin string, args ...string) *addrProc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	outB := &addrWriter{addr: make(chan string, 1)}
	errB := &plainBuffer{}
	cmd.Stdout = outB
	cmd.Stderr = errB
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &addrProc{cmd: cmd, outB: outB, errB: errB, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()

	select {
	case addr := <-outB.addr:
		p.url = "http://" + addr
	case err := <-p.done:
		t.Fatalf("%s exited before printing ADDR=: %v\nstderr:\n%s", bin, err, p.stderr())
	case <-time.After(60 * time.Second):
		p.kill(t)
		t.Fatalf("%s never printed ADDR=; stderr:\n%s", bin, p.stderr())
	}
	return p
}

func httpStatus(url string) int {
	resp, err := http.Get(url)
	if err != nil {
		return 0
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close() // status-only probe
	return resp.StatusCode
}

// replicaSnapshot mirrors the fields of the router's /replicas payload
// the e2e assertions need.
type replicaSnapshot struct {
	URL      string `json:"url"`
	Healthy  bool   `json:"healthy"`
	Requests int64  `json:"requests_total"`
}

func replicaSnapshots(t *testing.T, routerURL string) []replicaSnapshot {
	t.Helper()
	resp, err := http.Get(routerURL + "/replicas")
	if err != nil {
		t.Fatal(err)
	}
	var out []replicaSnapshot
	derr := json.NewDecoder(resp.Body).Decode(&out)
	if cerr := resp.Body.Close(); derr == nil {
		derr = cerr
	}
	if derr != nil {
		t.Fatal(derr)
	}
	return out
}

func upstreamRequests(t *testing.T, routerURL string) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	for _, st := range replicaSnapshots(t, routerURL) {
		out[st.URL] = st.Requests
	}
	return out
}

func upstreamTotal(t *testing.T, routerURL string) int64 {
	t.Helper()
	total := int64(0)
	for _, n := range upstreamRequests(t, routerURL) {
		total += n
	}
	return total
}
