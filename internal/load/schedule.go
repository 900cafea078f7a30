package load

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"trafficdiff/internal/stats"
)

// Request is one scheduled request in a load run.
type Request struct {
	// Index is the request's position in the merged firing order.
	Index int `json:"index"`
	// Client is the originating client's ID.
	Client string `json:"client"`
	// Class, Format, SLOClass and SLOTargetMs copy through from the
	// client spec.
	Class       string  `json:"class"`
	Format      string  `json:"format"`
	SLOClass    string  `json:"slo_class"`
	SLOTargetMs float64 `json:"slo_target_ms"`
	// Offset is the scheduled send time relative to run start.
	Offset time.Duration `json:"offset_ns"`
	// Flows is the requested flow count (request size).
	Flows int `json:"flows"`
	// Seed is the per-request generation seed sent to the server, so a
	// load run's responses are themselves reproducible.
	Seed uint64 `json:"seed"`
	// TimeoutMs, when positive, is forwarded as the request deadline.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// Schedule is the fully materialized, deterministic request stream a
// spec expands to. Building it is sequential and independent of
// GOMAXPROCS; running it (run.go) is the only concurrent part.
type Schedule struct {
	Seed     uint64
	Duration time.Duration // offset of the last request
	Requests []Request
}

// BuildSchedule expands a spec into its request schedule. Each client
// draws gaps, sizes and per-request seeds from its own Split stream,
// derived from the spec seed in client declaration order; the streams
// are then merged by offset with a stable sort (ties keep declaration
// order).
func BuildSchedule(spec *Spec) (*Schedule, error) {
	root := stats.NewRNG(spec.Seed)
	var all []Request
	for ci := range spec.Clients {
		c := &spec.Clients[ci]
		// Split unconditionally so adding/removing a later client never
		// perturbs earlier clients' streams.
		r := root.Split()
		rate := spec.AggregateRate * c.RateFraction
		gapDist, err := c.interArrival(rate)
		if err != nil {
			return nil, err
		}
		sizeDist, err := c.Size.Dist()
		if err != nil {
			return nil, fmt.Errorf("client %q: %w", c.ID, err)
		}
		lo, hi := c.Size.clampBounds()
		budget := clientBudget(spec, ci)
		t := 0.0
		for n := 0; budget < 0 || n < budget; n++ {
			// Draw order is part of the determinism contract: gap, then
			// size, then seed.
			gap := gapDist.Sample(r)
			if gap < 0 || math.IsNaN(gap) {
				gap = 0
			}
			t += gap
			if spec.DurationS > 0 && t > spec.DurationS {
				break
			}
			size := sizeDist.Sample(r)
			if math.IsNaN(size) {
				size = lo
			}
			size = math.Round(size)
			if size < lo {
				size = lo
			}
			if size > hi {
				size = hi
			}
			seed := r.Uint64()
			all = append(all, Request{
				Client:      c.ID,
				Class:       c.Class,
				Format:      c.Format,
				SLOClass:    c.SLOClass,
				SLOTargetMs: c.SLOTargetMs,
				Offset:      time.Duration(t * float64(time.Second)),
				Flows:       int(size),
				Seed:        seed,
				TimeoutMs:   c.TimeoutMs,
			})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Offset < all[j].Offset })
	sched := &Schedule{Seed: spec.Seed, Requests: all}
	for i := range all {
		all[i].Index = i
		if all[i].Offset > sched.Duration {
			sched.Duration = all[i].Offset
		}
	}
	return sched, nil
}

// clientBudget apportions spec.NumRequests across clients by rate
// fraction using largest remainders, so budgets sum exactly to
// NumRequests (a small fraction can legitimately get 0). Returns -1
// (unbounded) when no request budget is set — duration bounds the run.
func clientBudget(spec *Spec, idx int) int {
	if spec.NumRequests <= 0 {
		return -1
	}
	n := len(spec.Clients)
	floors := make([]int, n)
	rems := make([]float64, n)
	total := 0
	for i := range spec.Clients {
		exact := float64(float64(spec.NumRequests) * spec.Clients[i].RateFraction)
		floors[i] = int(math.Floor(exact))
		rems[i] = exact - float64(floors[i])
		total += floors[i]
	}
	// Hand the leftover requests to the largest remainders; ties go to
	// earlier clients so apportionment is deterministic.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rems[order[a]] > rems[order[b]] })
	for k := 0; k < spec.NumRequests-total; k++ {
		floors[order[k%n]]++
	}
	return floors[idx]
}

// Digest returns a stable hash of the schedule's observable content —
// the cheap way for tests and reports to assert two runs offered the
// exact same request stream.
func (s *Schedule) Digest() string {
	h := sha256.New()
	var buf [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		// hash.Hash.Write is documented to never return an error.
		_, _ = h.Write(buf[:])
	}
	writeStr := func(v string) {
		writeU64(uint64(len(v)))
		// hash.Hash.Write is documented to never return an error.
		_, _ = h.Write([]byte(v))
	}
	writeU64(s.Seed)
	writeU64(uint64(len(s.Requests)))
	for i := range s.Requests {
		q := &s.Requests[i]
		writeStr(q.Client)
		writeStr(q.Class)
		writeStr(q.Format)
		writeStr(q.SLOClass)
		writeU64(math.Float64bits(q.SLOTargetMs))
		writeU64(uint64(q.Offset))
		writeU64(uint64(q.Flows))
		writeU64(q.Seed)
		writeU64(uint64(q.TimeoutMs))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
