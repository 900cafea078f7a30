package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// TestRunRejectsIgnoredFlags checks that every flag combination run
// would silently ignore is refused before any work: the error names
// the offending flag and the output directory is never created.
func TestRunRejectsIgnoredFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*runOpts)
		want string
	}{
		{"load-model+resume", func(o *runOpts) { o.loadModel, o.resume = "m.ckpt", "t.ckpt" }, "-load-model skips training, so it does not take -resume"},
		{"load-model+checkpoint", func(o *runOpts) { o.loadModel, o.ckptPath = "m.ckpt", "t.ckpt" }, "-load-model skips training, so it does not take -checkpoint"},
		{"load-model+checkpoint-every", func(o *runOpts) { o.loadModel, o.ckptEvery = "m.ckpt", 5 }, "-load-model skips training, so it does not take -checkpoint-every"},
		{"gan+save", func(o *runOpts) { o.generator, o.saveModel = "gan", "m.ckpt" }, "-generator gan does not take -save"},
		{"gan+load-model", func(o *runOpts) { o.generator, o.loadModel = "gan", "m.ckpt" }, "-generator gan does not take -load-model"},
		{"gan+resume", func(o *runOpts) { o.generator, o.resume = "gan", "t.ckpt" }, "-generator gan does not take -resume"},
		{"gan+checkpoint-every", func(o *runOpts) { o.generator, o.ckptEvery = "gan", 5 }, "-generator gan does not take -checkpoint-every"},
		{"gan+stateful-repair", func(o *runOpts) { o.generator, o.stateful = "gan", true }, "-generator gan does not take -stateful-repair"},
		{"unknown generator", func(o *runOpts) { o.generator = "vae" }, `unknown generator "vae" (want diffusion or gan)`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "out")
			o := runOpts{
				outDir: out, classes: []string{"amazon"}, perClass: 1, trainN: 1,
				generator: "diffusion", seed: 1, rows: 8, steps: 2, keepReal: true,
			}
			tc.edit(&o)
			err := run(o)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("run error %v, want %q", err, tc.want)
			}
			if _, err := os.Stat(out); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("output directory touched before the flag check (stat error %v)", err)
			}
		})
	}
}
