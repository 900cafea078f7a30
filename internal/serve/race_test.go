//go:build race

package serve

// The race detector makes sync.Pool drop a share of what is put back,
// so pooled-buffer allocation counts mean nothing under it.
func init() { raceEnabled = true }
