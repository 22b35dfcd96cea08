package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. Each wraps one call from the benchmark into a layer's
// public function; the prefix is the layer.
const (
	spanEpisode    = "bench.episode"     // one application run, set-up to teardown
	spanIter       = "bench.iter"        // one iteration on one active rank
	spanStep       = "apps.step"         // apps.Jacobi2D.Step
	spanSend       = "mpi.send"          // Comm.Send of one exchange message
	spanFenceWait  = "mpi.fence_wait"    // Comm.Recv of a peer's fence
	spanDrain      = "mpi.drain"         // Comm.Recv of a fully queued backlog
	spanAllReduce  = "mpi.allreduce"     // Comm.AllReduceFloat64
	spanBulk       = "mpi.bulk"          // 1 MiB Comm.Send→Recv plus ack
	spanSwapPoint  = "swaprt.swap_point" // Session.SwapPoint
	spanDecide     = "swaprt.decide"     // LocalDecider.Decide
	spanEncode     = "state.encode"      // Session.SaveCheckpoint
	spanDecode     = "state.decode"      // Session.LoadCheckpoint
	spanFigure     = "experiment.figure" // experiment.FigN
	spanTechnique  = "strategy.run"      // strategy.Technique.Run
	spanLoadgenDay = "loadgen.day"       // one simulated day of load trace
)

// Outcomes tagged on swap-point spans.
const (
	pointStay   = "stay"   // no swap committed
	pointOut    = "out"    // this rank's process moved to a spare
	pointCommit = "commit" // a swap committed; this rank stayed active
)

// span is one timed call. Start and End are nanoseconds since the
// recorder's origin. Spans of one iteration share Iter; Parent is the ID
// of the span whose work caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Rank   int    `json:"rank"`
	Iter   int    `json:"iter"`
	N      int    `json:"n,omitempty"` // items the call covered (messages, bytes)
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanRec keeps spans in memory until the run ends. A nil recorder is
// tracing off: every method is a no-op and takes no timestamps.
type spanRec struct {
	origin time.Time
	ids    atomic.Uint64
	limit  int

	mu      sync.Mutex
	spans   []span
	dropped int
}

func newSpanRec(limit int) *spanRec {
	return &spanRec{origin: time.Now(), limit: limit}
}

// open is a started span: its ID (children name it as parent) and start.
type open struct {
	id uint64
	t  time.Time
}

// start opens a span. On a nil recorder it returns the zero open.
func (r *spanRec) start() open {
	if r == nil {
		return open{}
	}
	return open{id: r.ids.Add(1), t: time.Now()}
}

// end closes o and records it.
func (r *spanRec) end(o open, s span) {
	if r == nil {
		return
	}
	now := time.Now()
	s.ID = o.id
	s.Start = int64(o.t.Sub(r.origin))
	s.End = int64(now.Sub(r.origin))
	r.mu.Lock()
	if len(r.spans) < r.limit {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *spanRec) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// durations returns the durations in ms of the spans named name whose
// tag is one of tags (any tag when tags is empty).
func durations(spans []span, name string, tags ...string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name != name || (len(tags) > 0 && !contains(tags, s.Tag)) {
			continue
		}
		out = append(out, float64(s.dur())/1e6)
	}
	return out
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// dumpSpans writes every recorder's spans as JSON lines to path: a header
// line naming the run, then one span per line, grouped by workload.
func dumpSpans(path string, header any, recs map[string]*spanRec) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for _, name := range workloadNames {
		r := recs[name]
		if r == nil {
			continue
		}
		for _, s := range r.snapshot() {
			if err := enc.Encode(struct {
				Workload string `json:"workload"`
				span
			}{name, s}); err != nil {
				f.Close()
				return err
			}
		}
		if r.dropped > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %d spans over the %d-span limit were dropped\n",
				name, r.dropped, r.limit)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
