package trafficdiff

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"trafficdiff/internal/pcap"
)

// TestServeEndToEnd is the full train → save → serve loop over the
// real binaries: tracegen writes a checkpoint, traced loads and serves
// it, a seeded request replays tracegen's own pcap, concurrent clients
// get structurally valid and seed-deterministic pcaps, an undersized
// instance sheds load with 429, and SIGTERM drains in-flight work
// before a clean exit. `make serve-smoke` runs exactly this test.
func TestServeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("serve e2e in -short mode")
	}
	dir := t.TempDir()
	tracegen := dir + "/tracegen"
	traced := dir + "/traced"
	for bin, pkg := range map[string]string{tracegen: "./cmd/tracegen", traced: "./cmd/traced"} {
		out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}

	// Train a tiny model and save the checkpoint.
	ckpt := dir + "/model.ckpt"
	cmd := exec.Command(tracegen,
		"-classes", "amazon,teams", "-train", "4", "-per-class", "1",
		"-steps", "60", "-rows", "16", "-write-real=false",
		"-out", dir+"/synthetic", "-save", ckpt)
	genLog, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("tracegen: %v\n%s", err, genLog)
	}

	t.Run("tracegen-replay", func(t *testing.T) {
		srv := startTraced(t, traced, ckpt)
		defer srv.kill(t)

		// Each class's log line names the root seed its pcap came from.
		lines := regexp.MustCompile(`(\w+): 1 flows -> \S+ \(seed (\d+),`).FindAllStringSubmatch(string(genLog), -1)
		if len(lines) != 2 {
			t.Fatalf("want a seed on both classes' log lines, got %q\n%s", lines, genLog)
		}
		for _, m := range lines {
			class, root := m[1], m[2]
			want, err := os.ReadFile(dir + "/synthetic/synthetic_" + class + ".pcap")
			if err != nil {
				t.Fatal(err)
			}
			code, body, _, err := postGenerate(srv.url, fmt.Sprintf(`{"class":%q,"count":1,"seed":%s}`, class, root))
			if err != nil {
				t.Fatal(err)
			}
			if code != http.StatusOK {
				t.Fatalf("%s: status %d body %q", class, code, body)
			}
			if !bytes.Equal(body, want) {
				t.Errorf("%s: served body for seed %s differs from tracegen's pcap (%d vs %d bytes)", class, root, len(body), len(want))
			}
		}
	})

	t.Run("concurrent-generation", func(t *testing.T) {
		srv := startTraced(t, traced, ckpt, "-queue", "64", "-max-inflight", "16")
		defer srv.kill(t)

		const n = 32
		var wg sync.WaitGroup
		errs := make([]error, n)
		bodies := make([][]byte, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				class := []string{"amazon", "teams"}[i%2]
				// Requests 0 and 2 share class and seed: their bodies
				// must be bit-identical.
				seed := 1000 + i
				if i == 2 {
					seed = 1000
				}
				code, body, _, err := postGenerate(srv.url, fmt.Sprintf(`{"class":%q,"count":2,"seed":%d}`, class, seed))
				if err != nil {
					errs[i] = err
					return
				}
				if code != http.StatusOK {
					errs[i] = fmt.Errorf("request %d: status %d body %q", i, code, body)
					return
				}
				bodies[i] = body
				rd, err := pcap.NewReader(bytes.NewReader(body))
				if err != nil {
					errs[i] = fmt.Errorf("request %d: invalid pcap: %v", i, err)
					return
				}
				if recs, err := rd.ReadAll(); err != nil || len(recs) == 0 {
					errs[i] = fmt.Errorf("request %d: %d records, err %v", i, len(recs), err)
				}
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(bodies[0], bodies[2]) {
			t.Fatal("same-seed requests returned different bodies across the network boundary")
		}
		if bytes.Equal(bodies[0], bodies[4]) {
			t.Fatal("different-seed requests returned identical bodies")
		}

		// Metrics moved under load.
		m := fetchMetrics(t, srv.url)
		for _, key := range []string{"accepted_total", "batch_occupancy_count", "flows_admitted_total", "latency_ms_count", "flows_generated_total"} {
			if m[key] <= 0 {
				t.Errorf("metric %s = %v, want > 0 after load", key, m[key])
			}
		}
	})

	t.Run("backpressure-and-drain", func(t *testing.T) {
		srv := startTraced(t, traced, ckpt, "-queue", "1", "-max-inflight", "8")
		defer srv.kill(t)

		// Flood the undersized instance: admitted requests succeed,
		// overflow is shed with 429 + Retry-After.
		const n = 24
		var wg sync.WaitGroup
		codes := make([]int, n)
		retryAfter := make([]string, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				code, _, hdr, err := postGenerate(srv.url, `{"class":"amazon","count":8}`)
				if err == nil {
					codes[i] = code
					retryAfter[i] = hdr.Get("Retry-After")
				}
			}(i)
		}
		wg.Wait()
		var ok, shed int
		for i, code := range codes {
			switch code {
			case http.StatusOK:
				ok++
			case http.StatusTooManyRequests:
				shed++
				if retryAfter[i] == "" {
					t.Error("429 without Retry-After header")
				}
			default:
				t.Errorf("request %d: unexpected status %d", i, code)
			}
		}
		if ok == 0 || shed == 0 {
			t.Fatalf("flood: %d ok, %d shed — want both > 0 (backpressure not exercised)", ok, shed)
		}

		// SIGTERM with a request in flight: the request completes, the
		// process drains and exits 0. A handler gives its slot back after
		// its client has the whole body, so wait for the flood's slots
		// first, or this request can be the one that is shed.
		waitUntil(t, "flood's slots released", func() bool {
			return fetchMetrics(t, srv.url)["inflight_requests"] == 0
		})
		inFlight := make(chan []byte, 1)
		inErr := make(chan error, 1)
		go func() {
			code, body, _, err := postGenerate(srv.url, `{"class":"teams","count":8}`)
			if err != nil {
				inErr <- err
				return
			}
			if code != http.StatusOK {
				inErr <- fmt.Errorf("in-flight request: status %d body %q", code, body)
				return
			}
			inFlight <- body
		}()
		waitUntil(t, "in-flight request admitted", func() bool {
			return fetchMetrics(t, srv.url)["accepted_total"] > float64(ok)
		})
		if err := srv.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case body := <-inFlight:
			if rd, err := pcap.NewReader(bytes.NewReader(body)); err != nil {
				t.Fatalf("drained response invalid: %v", err)
			} else if recs, err := rd.ReadAll(); err != nil || len(recs) == 0 {
				t.Fatalf("drained response: %d records, err %v", len(recs), err)
			}
		case err := <-inErr:
			t.Fatalf("in-flight request failed during drain: %v", err)
		case <-time.After(30 * time.Second):
			t.Fatal("in-flight request not answered during drain")
		}
		if err := srv.wait(30 * time.Second); err != nil {
			t.Fatalf("traced did not exit cleanly after SIGTERM: %v\nstderr:\n%s", err, srv.stderr())
		}
		if !strings.Contains(srv.stderr(), "drained cleanly") {
			t.Fatalf("missing drain log; stderr:\n%s", srv.stderr())
		}
	})
}

// tracedProc is one running traced instance under test.
type tracedProc struct {
	cmd  *exec.Cmd
	url  string
	errB *watchWriter
	done chan error
}

// watchWriter accumulates the child's stderr and signals addr once the
// "listening on" line is complete. It is handed to cmd.Stderr directly
// (not via StderrPipe) so os/exec's own copier guarantees every byte —
// including the final drain log — lands here before Wait returns.
type watchWriter struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	found bool
	addr  chan string
}

func (w *watchWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n, err := w.buf.Write(p)
	if !w.found {
		const marker = "traced: listening on "
		s := w.buf.String()
		if i := strings.Index(s, marker); i >= 0 {
			rest := s[i+len(marker):]
			if j := strings.IndexByte(rest, '\n'); j >= 0 {
				w.found = true
				w.addr <- strings.TrimSpace(rest[:j])
			}
		}
	}
	return n, err
}

func (w *watchWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

func (p *tracedProc) stderr() string { return p.errB.String() }

// wait blocks for process exit and returns its error (nil on exit 0).
func (p *tracedProc) wait(d time.Duration) error {
	select {
	case err := <-p.done:
		return err
	case <-time.After(d):
		return fmt.Errorf("timeout after %v", d)
	}
}

func (p *tracedProc) kill(t *testing.T) {
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

// startTraced launches traced on an ephemeral port and waits for
// readiness, returning the base URL.
func startTraced(t *testing.T, bin, ckpt string, extra ...string) *tracedProc {
	t.Helper()
	args := append([]string{"-model", ckpt, "-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	errB := &watchWriter{addr: make(chan string, 1)}
	cmd.Stderr = errB
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &tracedProc{cmd: cmd, errB: errB, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()

	select {
	case addr := <-errB.addr:
		p.url = "http://" + addr
	case err := <-p.done:
		t.Fatalf("traced exited before listening: %v\nstderr:\n%s", err, p.stderr())
	case <-time.After(30 * time.Second):
		p.kill(t)
		t.Fatalf("traced never reported a listen address; stderr:\n%s", p.stderr())
	}
	waitUntil(t, "traced ready", func() bool {
		resp, err := http.Get(p.url + "/readyz")
		if err != nil {
			return false
		}
		// Readiness body is irrelevant; drop it so connections recycle.
		_, _ = io.Copy(io.Discard, resp.Body)
		if cerr := resp.Body.Close(); cerr != nil {
			return false
		}
		return resp.StatusCode == http.StatusOK
	})
	return p
}

func postGenerate(url, body string) (int, []byte, http.Header, error) {
	resp, err := http.Post(url+"/v1/generate", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, data, resp.Header, nil
}

func fetchMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	derr := json.NewDecoder(resp.Body).Decode(&raw)
	if cerr := resp.Body.Close(); derr == nil {
		derr = cerr
	}
	if derr != nil {
		t.Fatal(derr)
	}
	out := map[string]float64{}
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
