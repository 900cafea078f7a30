package core

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"trafficdiff/internal/flow"
	"trafficdiff/internal/pcap"
	"trafficdiff/internal/workload"
)

// sharedSynth trains one small two-class synthesizer for the whole
// test binary; the seeded generation APIs are stateless, so tests can
// share it freely.
var (
	sharedOnce  sync.Once
	sharedS     *Synthesizer
	sharedErr   error
	sharedClass = []string{"amazon", "teams"}
)

func sharedSynth(t *testing.T) *Synthesizer {
	t.Helper()
	sharedOnce.Do(func() {
		s, err := New(fastConfig(), sharedClass)
		if err != nil {
			sharedErr = err
			return
		}
		ds, err := flowsForShared()
		if err != nil {
			sharedErr = err
			return
		}
		if _, err := s.FineTune(ds); err != nil {
			sharedErr = err
			return
		}
		sharedS = s
	})
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return sharedS
}

// savedCopy is a Load(Save(…)) copy of the shared synthesizer: the same
// weights, with the call counter that roots unseeded calls at 0 whatever
// ran before.
func savedCopy(t *testing.T) *Synthesizer {
	t.Helper()
	var buf bytes.Buffer
	if err := sharedSynth(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func flowsForShared() (map[string][]*flow.Flow, error) {
	ds, err := workload.Generate(workload.Config{
		Seed: 11, FlowsPerClass: 4, Only: sharedClass, MaxPacketsPerFlow: 16,
	})
	if err != nil {
		return nil, err
	}
	out := map[string][]*flow.Flow{}
	for _, f := range ds.Flows {
		out[f.Label] = append(out[f.Label], f)
	}
	return out, nil
}

// pcapBytes serializes flows exactly the way the serving layer does, so
// byte-equality here is the same property the network contract promises.
func pcapBytes(t *testing.T, flows []*flow.Flow) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, pcap.LinkTypeEthernet)
	if err != nil {
		t.Fatal(err)
	}
	for _, fl := range flows {
		for _, p := range fl.Packets {
			if err := w.WritePacket(p.Timestamp, p.Data); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

// TestConcurrentGenerateAcrossClasses exercises the server usage
// pattern under the race detector: many goroutines generating across
// classes while SetDDIMSteps runs concurrently. (The value written is
// the one already configured, so outputs stay deterministic; the test
// is about synchronization, not variety.)
func TestConcurrentGenerateAcrossClasses(t *testing.T) {
	s := sharedSynth(t)
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			class := sharedClass[w%len(sharedClass)]
			if w%3 == 0 {
				s.SetDDIMSteps(fastConfig().DDIMSteps)
			}
			var err error
			if w%2 == 0 {
				_, err = s.GenerateSeeded(class, 1, uint64(1000+w))
			} else {
				_, err = s.Generate(class, 1)
			}
			errs[w] = err
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
}

// TestGenerateSeededDeterministic is the replay contract: the same
// (class, n, seed) triple produces bit-identical pcap bytes, while a
// different seed produces different ones.
func TestGenerateSeededDeterministic(t *testing.T) {
	s := sharedSynth(t)
	a, err := s.GenerateSeeded("amazon", 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.GenerateSeeded("amazon", 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pcapBytes(t, a.Flows), pcapBytes(t, b.Flows)) {
		t.Fatal("same seed produced different pcap bytes")
	}
	c, err := s.GenerateSeeded("amazon", 2, 43)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(pcapBytes(t, a.Flows), pcapBytes(t, c.Flows)) {
		t.Fatal("different seeds produced identical pcap bytes")
	}
}

// TestGenerateReplaysAsSeeded is the offline replay contract: an
// unseeded Generate call is GenerateSeeded at the Root it reports, pcap
// and csv bytes alike; successive calls draw different roots; and a
// rejected call draws none.
func TestGenerateReplaysAsSeeded(t *testing.T) {
	s := savedCopy(t)
	roots := map[uint64]bool{}
	for _, class := range sharedClass {
		for _, n := range []int{1, 3} {
			res, err := s.Generate(class, n)
			if err != nil {
				t.Fatal(err)
			}
			if roots[res.Root] {
				t.Errorf("%s n=%d: root %#x drawn twice", class, n, res.Root)
			}
			roots[res.Root] = true
			re, err := s.GenerateSeeded(class, n, res.Root)
			if err != nil {
				t.Fatal(err)
			}
			if re.Root != res.Root {
				t.Errorf("%s n=%d: GenerateSeeded reports root %#x, want %#x", class, n, re.Root, res.Root)
			}
			if !bytes.Equal(pcapBytes(t, res.Flows), pcapBytes(t, re.Flows)) {
				t.Errorf("%s n=%d: pcap bytes differ from GenerateSeeded at the reported root", class, n)
			}
			if csvDigest(t, res.Matrices) != csvDigest(t, re.Matrices) {
				t.Errorf("%s n=%d: csv bytes differ from GenerateSeeded at the reported root", class, n)
			}
		}
	}

	rejected, clean := savedCopy(t), savedCopy(t)
	if _, err := rejected.Generate("bogus", 1); err == nil {
		t.Fatal("unknown class accepted")
	}
	if _, err := rejected.Generate(sharedClass[0], 0); err == nil {
		t.Fatal("n=0 accepted")
	}
	a, err := rejected.Generate(sharedClass[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := clean.Generate(sharedClass[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Root != b.Root {
		t.Errorf("rejected calls moved the next root: %#x, want %#x", a.Root, b.Root)
	}
}

// TestFlowSeedBatchIndependence is the coalescing-safety property: a
// flow's bytes depend only on its own seed, not on which other flows
// share the sampling batch (here: one piece per loop of the private
// engine, or a flow alone). The engine relies on this to deal requests
// into pieces and batch them with others.
func TestFlowSeedBatchIndependence(t *testing.T) {
	s := sharedSynth(t)
	seeds := DeriveFlowSeeds(7, 3)
	batch, err := s.GenerateWithFlowSeeds("teams", seeds)
	if err != nil {
		t.Fatal(err)
	}
	for i, fs := range seeds {
		solo, err := s.GenerateWithFlowSeeds("teams", []uint64{fs})
		if err != nil {
			t.Fatal(err)
		}
		got := pcapBytes(t, solo.Flows)
		want := pcapBytes(t, batch.Flows[i:i+1])
		if !bytes.Equal(got, want) {
			t.Fatalf("flow %d differs between batch and solo generation", i)
		}
	}
}

// TestSaveLoadSeededByteIdentical is the checkpoint property test: a
// synthesizer restored with Load(Save(s)) must replay a seeded request
// bit-identically to the original — the guarantee that lets any
// replica serving the same checkpoint answer the same request with the
// same bytes.
func TestSaveLoadSeededByteIdentical(t *testing.T) {
	s := sharedSynth(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range sharedClass {
		for seed := uint64(1); seed <= 3; seed++ {
			orig, err := s.GenerateSeeded(class, 2, seed)
			if err != nil {
				t.Fatal(err)
			}
			re, err := loaded.GenerateSeeded(class, 2, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pcapBytes(t, orig.Flows), pcapBytes(t, re.Flows)) {
				t.Fatalf("class %s seed %d: loaded synthesizer diverged from original", class, seed)
			}
		}
	}
}

// chunkReader hides ReadByte and returns at most chunk bytes per call
// — the shape of a file, pipe, or socket delivering short reads. It
// forces gob.NewDecoder to add its own buffering, whose refills then
// land at arbitrary offsets relative to the snapshot/params stream
// boundary inside the checkpoint.
type chunkReader struct {
	r     io.Reader
	chunk int
}

func (c chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.chunk {
		p = p[:c.chunk]
	}
	return c.r.Read(p)
}

// TestLoadFromPlainReader guards against gob read-ahead eating the
// params stream: the checkpoint holds two consecutive gob streams, and
// a decoder wrapping a non-ByteReader source buffers past the first
// stream's end. Loading must work from a plain io.Reader (and hence
// from the os.File traced and tracegen -load-model pass in), not just
// from in-memory buffers.
func TestLoadFromPlainReader(t *testing.T) {
	s := sharedSynth(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}

	// A spread of co-prime chunk sizes so at least one lands a refill
	// across the stream boundary on any checkpoint layout.
	for _, chunk := range []int{997, 1000, 4096, 5003} {
		loaded, err := Load(chunkReader{bytes.NewReader(buf.Bytes()), chunk})
		if err != nil {
			t.Fatalf("load from %d-byte-chunk reader: %v", chunk, err)
		}
		if got, want := loaded.Classes(), s.Classes(); len(got) != len(want) {
			t.Fatalf("chunk %d: loaded %d classes, want %d", chunk, len(got), len(want))
		}
	}
	loaded, err := Load(chunkReader{bytes.NewReader(buf.Bytes()), 997})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fromFile, err := Load(f)
	if err != nil {
		t.Fatalf("load from os.File: %v", err)
	}

	class := sharedClass[0]
	want, err := s.GenerateSeeded(class, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for name, ld := range map[string]*Synthesizer{"reader": loaded, "file": fromFile} {
		got, err := ld.GenerateSeeded(class, 2, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pcapBytes(t, want.Flows), pcapBytes(t, got.Flows)) {
			t.Fatalf("synthesizer loaded via %s diverged from original", name)
		}
	}
}
