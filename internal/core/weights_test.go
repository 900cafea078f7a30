package core

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"trafficdiff/internal/tensor"
)

// flowsDigest hashes every packet's timestamp and bytes, for checks run
// off the test goroutine.
func flowsDigest(res *GenerateResult) [sha256.Size]byte {
	h := sha256.New()
	for _, fl := range res.Flows {
		for _, p := range fl.Packets {
			h.Write(strconv.AppendInt(nil, p.Timestamp.UnixNano(), 10))
			h.Write(p.Data)
		}
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// vmRSS reads the process's resident set size in bytes.
func vmRSS(t *testing.T) int64 {
	t.Helper()
	f, err := os.Open("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return kb << 10
		}
	}
	t.Fatal("no VmRSS line in /proc/self/status")
	return 0
}

// waitUnmapped collects garbage until the tensor data held in mappings
// is back to at most limit bytes: a dropped model's mappings go when
// the finalizers queued by a collection have run.
func waitUnmapped(t *testing.T, limit int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if tensor.MappedBytes() <= limit {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d bytes still mapped, want at most %d", tensor.MappedBytes(), limit)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLoadedModelsReleaseTheirWeights loads, samples from and drops a
// paper-geometry model 30 times beside a long-lived engine that keeps
// generating from another copy. Every round's bytes equal the golden
// bytes of the trained model, the engine's output never moves, and on
// Linux the dropped models' mappings are unmapped (resident memory stays
// within two models' weights of the first round), so a process that
// reloads models does not accumulate their weights.
func TestLoadedModelsReleaseTheirWeights(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BaseSteps, cfg.FineTuneSteps, cfg.Batch, cfg.DDIMSteps = 2, 2, 4, 4
	classes := []string{"amazon", "teams"}
	s, err := New(cfg, classes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.FineTune(trainingFlows(t, classes, 2)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	var weights int64
	for _, p := range s.allParams() {
		weights += 4 * int64(len(p.X.Data))
	}
	seeds := DeriveFlowSeeds(99, 1)
	res, err := s.GenerateWithFlowSeeds("amazon", seeds)
	if err != nil {
		t.Fatal(err)
	}
	golden := flowsDigest(res)

	eng, err := NewEngine(s, EngineConfig{MaxInFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	stop, done := make(chan struct{}), make(chan error, 1)
	go func() {
		engSeeds := DeriveFlowSeeds(5, 2)
		var first [sha256.Size]byte
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			r, err := eng.Generate(context.Background(), "teams", engSeeds, nil)
			if err != nil {
				done <- err
				return
			}
			if d := flowsDigest(r); i == 0 {
				first = d
			} else if d != first {
				done <- errors.New("the long-lived engine's output moved")
				return
			}
		}
	}()

	linux := runtime.GOOS == "linux"
	runtime.GC()
	alive := tensor.MappedBytes()
	var rss0 int64
	for round := range 30 {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.GenerateWithFlowSeeds("amazon", seeds)
		if err != nil {
			t.Fatal(err)
		}
		if flowsDigest(r) != golden {
			t.Fatalf("round %d: the loaded model's bytes differ from the trained model's", round)
		}
		m, r = nil, nil
		if !linux {
			continue
		}
		waitUnmapped(t, alive)
		rss := vmRSS(t)
		if round == 0 {
			rss0 = rss
		} else if rss > rss0+2*weights {
			t.Fatalf("round %d: resident %d bytes, round 0 %d, want at most two models' weights (%d bytes) more", round, rss, rss0, 2*weights)
		}
	}
	if linux {
		t.Logf("resident %d bytes after round 0, %d after round 29; %d bytes of weights", rss0, vmRSS(t), weights)
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(s)
}
