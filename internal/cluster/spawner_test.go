package cluster

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"testing"
	"time"
)

// fakeTracedEnv, when set, turns the test binary into a stand-in for
// traced (see TestMain).
const fakeTracedEnv = "CLUSTER_TEST_FAKE_TRACED"

// TestMain doubles as a stand-in traced binary for TracedSpawner: run
// with fakeTracedEnv set, the test binary parses traced's flags the
// way traced does (the last -seed-base wins), announces the seed base
// in its ADDR= line, and exits 0 on SIGTERM.
func TestMain(m *testing.M) {
	if os.Getenv(fakeTracedEnv) == "" {
		os.Exit(m.Run())
	}
	fs := flag.NewFlagSet("traced", flag.ExitOnError)
	fs.String("model", "", "checkpoint")
	fs.String("addr", "", "listen address")
	seedBase := fs.Uint64("seed-base", 1, "seed base for unseeded requests")
	_ = fs.Parse(os.Args[1:]) // ExitOnError: never returns an error
	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGTERM)
	fmt.Printf("ADDR=seed-base-%d\n", *seedBase)
	<-term
	os.Exit(0)
}

// TestTracedSpawnerGivesEachReplicaItsOwnSeedBase: every managed
// replica runs with its own -seed-base, even when the extra traced
// flags set one, so no two replicas answer their k-th unseeded request
// with the same flows.
func TestTracedSpawnerGivesEachReplicaItsOwnSeedBase(t *testing.T) {
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(fakeTracedEnv, "1")
	spawn := TracedSpawner(bin, "model.ckpt", []string{"-seed-base", "9"})
	seen := map[string]int{}
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		p, err := spawn(ctx)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		stopErr := p.Stop(ctx)
		cancel()
		if stopErr != nil {
			t.Fatalf("stopping spawn %d: %v", i, stopErr)
		}
		if prev, dup := seen[p.URL]; dup {
			t.Fatalf("spawns %d and %d share %s", prev, i, p.URL)
		}
		seen[p.URL] = i
	}
}
