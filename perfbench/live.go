package main

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/swaprt"
	"repro/internal/swaprt/policylens"
)

// liveWindow is the number of iterations per ops_per_s and op_ms_tail
// window on exchange-steady: enough for a p95 with 10 samples beyond it.
const liveWindow = 200

// runGrace is how long a run that outlived its deadline gets to return
// after its world is closed before the benchmark gives up on it.
const runGrace = 10 * time.Second

// liveRun describes one live application run: a fresh TCP loopback
// world, the swapping runtime around a decider the benchmark times, and
// a body that runs on every rank.
type liveRun struct {
	name   string
	ranks  int
	active int
	policy core.Policy
	probe  func(worldRank int) float64
	limit  time.Duration // deadline for the whole run
	tr     *spanRec
	body   func(s *swaprt.Session, rec *recorder, cur []parentRef) error
}

// runResult is what one live run produced.
type runResult struct {
	setup    float64 // seconds from the start of the run to its first iteration
	rec      *recorder
	stats    swaprt.RunStats
	err      error
	timedOut bool
	hung     bool
}

// parentRef names a rank's open iteration span, so a decide span the
// leader's SwapPoint causes can point at it.
type parentRef struct {
	id   uint64
	iter int
}

// timedDecider wraps the local decider to record a span per decision.
// The runtime calls Decide from the active leader's goroutine, and the
// leader is the first member of the active set.
type timedDecider struct {
	inner *swaprt.LocalDecider
	tr    *spanRec
	cur   []parentRef
}

func (d *timedDecider) Decide(req swaprt.DecideRequest) (swaprt.DecideResponse, error) {
	o := d.tr.start()
	resp, err := d.inner.Decide(req)
	if d.tr != nil && len(req.ActiveSet) > 0 {
		lead := req.ActiveSet[0]
		p := d.cur[lead]
		d.tr.end(o, span{Parent: p.id, Name: spanDecide, Rank: lead, Iter: p.iter})
	}
	return resp, err
}

// run executes the application once, with the policy lens and the
// telemetry hub attached and enabled. It first collects the garbage
// earlier runs left, so that no run pays for another's.
func (lr liveRun) run(finalCells int) runResult {
	runtime.GC()
	start := time.Now()
	ep := lr.tr.start()
	res := runResult{rec: &recorder{final: make([]float64, finalCells)}}
	world, err := mpi.NewTCPWorld(lr.ranks)
	if err != nil {
		res.err = fmt.Errorf("tcp world: %w", err)
		return res
	}
	cur := make([]parentRef, lr.ranks)
	cfg := swaprt.Config{
		Active:    lr.active,
		Decider:   &timedDecider{inner: swaprt.NewLocalDecider(lr.policy), tr: lr.tr, cur: cur},
		Probe:     lr.probe,
		Telemetry: swaprt.NewTelemetryHub(nil),
		Lens:      policylens.New(policylens.Config{Registry: world.Metrics()}),
	}
	var stats swaprt.RunStats
	res.timedOut, res.hung, res.err = bounded(lr.limit, runGrace, world.Close, func() error {
		var err error
		stats, err = swaprt.RunWithStats(world, cfg, func(s *swaprt.Session) error {
			return lr.body(s, res.rec, cur)
		})
		return err
	})
	if res.hung {
		return res
	}
	res.stats = stats
	if !res.rec.firstOp.IsZero() {
		res.setup = res.rec.firstOp.Sub(start).Seconds()
	}
	lr.tr.end(ep, span{Name: spanEpisode, Tag: lr.name, Rank: -1, N: len(res.rec.opMS)})
	return res
}

// check folds a run's failures into out: run errors, timeouts, aborted
// swaps, in-run oracle mismatches and a final grid that differs from the
// swap-free reference. It reports whether the run is usable.
func (r runResult) check(out *slice, name string, ref []float64) bool {
	switch {
	case r.hung:
		out.hung = true
		out.fail("%s: run did not end within its deadline plus %s after its world closed", name, runGrace)
		return false
	case r.timedOut:
		out.fail("%s: run exceeded its deadline (err %v)", name, r.err)
		return false
	case r.err != nil:
		out.fail("%s: run: %v", name, r.err)
		return false
	}
	for i := 0; i < r.stats.SwapAborts; i++ {
		out.fail("%s: swap aborted", name)
	}
	r.rec.mu.Lock()
	defer r.rec.mu.Unlock()
	for _, bad := range r.rec.bad {
		out.fail("%s: %s", name, bad)
	}
	if more := r.rec.nbad - len(r.rec.bad); more > 0 {
		out.failed += more
		fmt.Fprintf(os.Stderr, "perfbench: failure: %s: %d more mismatches\n", name, more)
	}
	if err := sameGrid(r.rec.final, ref); err != nil {
		out.fail("%s: final grid differs from the swap-free reference: %v", name, err)
		return false
	}
	return r.rec.nbad == 0
}

// absorb adds a checked run's samples and counters to out.
func (r runResult) absorb(out *slice) {
	out.opMS = append(out.opMS, r.rec.opMS...)
	out.run.Swaps += r.stats.Swaps
	out.run.SwapAborts += r.stats.SwapAborts
	out.run.StateBytes += r.stats.StateBytes
	total := r.stats.MPI.Total()
	out.mpi.MsgsSent += total.MsgsSent
	out.mpi.BytesSent += total.BytesSent
	out.mpi.SendBlock += total.SendBlock
	if r.rec.leader != nil {
		out.final = r.rec.leader
	}
}

// swapPoint calls SwapPoint on an active rank and classifies the outcome
// from what the rank sees afterwards: it left the active set, or its
// communicator was rebuilt because a swap committed.
func swapPoint(s *swaprt.Session, tr *spanRec, parent uint64, iter int) error {
	before := s.Comm()
	o := tr.start()
	err := s.SwapPoint()
	if tr == nil {
		return err
	}
	outcome := pointStay
	switch {
	case !s.Active():
		outcome = pointOut
	case s.Comm() != before:
		outcome = pointCommit
	}
	tr.end(o, span{Parent: parent, Name: spanSwapPoint, Tag: outcome, Rank: s.Rank(), Iter: iter})
	return err
}

// stepAndReduce runs one Jacobi2D sweep and the all-reduce of its
// residual, each under its own span.
func stepAndReduce(g apps.Jacobi2D, comm *mpi.Comm, st *apps.Jacobi2DState, tr *spanRec, parent uint64, rank, iter int) error {
	o := tr.start()
	res, err := g.Step(comm, st)
	tr.end(o, span{Parent: parent, Name: spanStep, Rank: rank, Iter: iter})
	if err != nil {
		return err
	}
	o = tr.start()
	_, err = comm.AllReduceFloat64(mpi.OpSum, res)
	tr.end(o, span{Parent: parent, Name: spanAllReduce, Rank: rank, Iter: iter})
	return err
}

// flatProbe reports the same rate for every host.
func flatProbe(int) float64 { return rateIdle }

// loadedProbe reports rateLoaded for the host in loaded and rateIdle for
// the rest.
func loadedProbe(loaded *atomic.Int32) func(int) float64 {
	return func(r int) float64 {
		if int32(r) == loaded.Load() {
			return rateLoaded
		}
		return rateIdle
	}
}

const (
	rateIdle   = 100.0
	rateLoaded = 10.0
)
