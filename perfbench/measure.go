package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/mpi"
	"repro/internal/swaprt"
)

// slice is what one measured stretch of a workload produced. Live
// workloads count application iterations as ops; sim-figures counts
// passes over Figures 4–9.
type slice struct {
	window int       // ops per window of the ops_per_s and op_ms_tail medians
	failed int       // failures: aborted swaps, run errors, timeouts, oracle mismatches
	hung   bool      // a run outlived its deadline and its teardown; stop measuring
	opMS   []float64 // wall time of each op completed (live: the active leader's iteration)
	setupS []float64 // set-up samples: workload start to the first op

	allocBytes uint64 // heap bytes allocated while measuring
	peakHeap   uint64 // highest heap-object bytes sampled while measuring

	// Live workloads.
	run         swaprt.RunStats // swap counts and state bytes summed over runs
	mpi         mpi.RankStats   // world totals of the measured runs
	final       *swaprt.Session // the last run's active leader, for the state codec probe
	encodeAlloc []float64       // bytes each state encode allocated per encoded byte

	// sim-figures.
	digest  string
	simRuns int
}

// fail records one failure with its reason on stderr.
func (s *slice) fail(format string, args ...any) {
	s.failed++
	fmt.Fprintf(os.Stderr, "perfbench: failure: "+format+"\n", args...)
}

// heapWatch samples allocation totals and the heap-object high-water
// mark while a slice runs.
type heapWatch struct {
	stop  chan struct{}
	done  chan struct{}
	start uint64
	peak  uint64
}

const (
	metricAllocs = "/gc/heap/allocs:bytes"
	metricHeap   = "/memory/classes/heap/objects:bytes"
)

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{}), start: readMetric(metricAllocs)}
	go func() {
		defer close(h.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			h.peak = max(h.peak, readMetric(metricHeap))
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and stores its totals in s.
func (h *heapWatch) finish(s *slice) {
	close(h.stop)
	<-h.done
	s.allocBytes = readMetric(metricAllocs) - h.start
	s.peakHeap = h.peak
}

// bounded runs fn and waits at most limit for it. When the limit passes
// it calls cancel (which must unblock fn, e.g. by closing the world) and
// waits grace more. It reports whether the limit passed, whether fn was
// still running after the grace period, and fn's error.
func bounded(limit, grace time.Duration, cancel func(), fn func() error) (timedOut, hung bool, err error) {
	done := make(chan error, 1)
	go func() { done <- fn() }()
	t := time.NewTimer(limit)
	defer t.Stop()
	select {
	case err = <-done:
		return false, false, err
	case <-t.C:
	}
	cancel()
	select {
	case err = <-done:
		return true, false, err
	case <-time.After(grace):
		return true, true, nil
	}
}

// recorder collects per-op samples from whichever rank goroutine is the
// active leader; leadership moves with swaps, so writes are locked.
type recorder struct {
	mu      sync.Mutex
	firstOp time.Time // when the first iteration of the run began
	opMS    []float64
	final   []float64 // final grid rows gathered from the active ranks
	leader  *swaprt.Session
	nbad    int      // oracle mismatches seen inside the ranks
	bad     []string // the first few of them
}

func (r *recorder) first(t time.Time) {
	r.mu.Lock()
	r.firstOp = t
	r.mu.Unlock()
}

func (r *recorder) op(d time.Duration) {
	r.mu.Lock()
	r.opMS = append(r.opMS, float64(d)/1e6)
	r.mu.Unlock()
}

func (r *recorder) mismatch(format string, args ...any) {
	r.mu.Lock()
	r.nbad++
	if len(r.bad) < 5 {
		r.bad = append(r.bad, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// gather copies an active rank's final block into the run's global grid.
func (r *recorder) gather(g apps.Jacobi2D, st *apps.Jacobi2DState) {
	r.mu.Lock()
	gather(g, st, r.final)
	r.mu.Unlock()
}

// setLeader keeps the session of the run's final active leader.
func (r *recorder) setLeader(s *swaprt.Session) {
	r.mu.Lock()
	r.leader = s
	r.mu.Unlock()
}
