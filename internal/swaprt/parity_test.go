package swaprt

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/mpi/fault"
)

// TestRunStatsTelemetryParity pins RunStats and the telemetry report on
// a deterministic run with one forced abort. The expected values were
// captured from the runtime before RunStats and the hub were rebuilt as
// event sinks; the sinks must reproduce them exactly.
//
// The world: actives 0 and 1 (rates 100, 200), spares 2 and 3 (1000,
// 500), greedy policy. The first decision proposes 0→2 and 1→3; the
// fault plan refuses the state send to rank 2, so that swap aborts and
// quarantines 2 while 1→3 commits (epoch 1). The next decision moves 0
// to the freed spare 1 (epoch 2). Waits run on a frozen fake clock, so
// every measured duration is exactly zero; the first rank to finish
// advances it past the stranded spare's transfer deadline so the run
// can end.
func TestRunStatsTelemetryParity(t *testing.T) {
	fake := clock.NewFake()
	w, err := mpi.NewWorldWithConfig(mpi.Config{Size: 4, Clock: fake,
		Fault: fault.MustParse("refuse:src=0,dst=2,count=1")})
	if err != nil {
		t.Fatal(err)
	}
	clk := &fakeClock{step: 0.05}
	rt := &rateTable{rates: []float64{100, 200, 1000, 500}}
	hub := NewTelemetryHub(nil)
	body := iterBody(8, nil)
	stats, err := RunWithStats(w, Config{
		Active:    2,
		Policy:    core.Greedy(),
		Probe:     rt.probe,
		Clock:     clk.now,
		Time:      fake,
		Telemetry: hub,
	}, func(s *Session) error {
		err := body(s)
		fake.Advance(time.Hour)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	stats.MPI = mpi.WorldStats{}
	// The committed swaps ship the state after iterations 1 and 2. Gob
	// numbers types in the order a process first meets them, so the
	// encoded size can move by a byte with test order; encode the same
	// two states here (34 + 36 bytes in a fresh process).
	stateLen := func(iter int, sum float64) int64 {
		ss := newStateSet()
		ss.register("iter", &iter)
		ss.register("sum", &sum)
		data, err := ss.encode()
		if err != nil {
			t.Fatal(err)
		}
		return int64(len(data))
	}
	wantStats := RunStats{
		SwapPoints:  16,
		Swaps:       2,
		Decisions:   8,
		SwapAborts:  1,
		Quarantined: 1,
		StateBytes:  stateLen(1, 2) + stateLen(2, 4),
	}
	if !reflect.DeepEqual(stats, wantStats) {
		t.Errorf("RunStats\n got %+v\nwant %+v", stats, wantStats)
	}

	rep := hub.Report()
	d := rep.Decisions
	got := []any{d.Count, d.SwapVerdicts, d.Swaps, d.Aborts, d.Payback.N,
		d.LastVerdict, d.LastReason, rep.Epoch, rep.ActiveSet, rep.Quarantined}
	want := []any{8, 2, 2, 1, 2,
		"stay", "spare rate 100 not above active rate 200", uint64(2), []int{1, 3}, []int{2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("telemetry (count, swap verdicts, swaps, aborts, paybacks, last verdict/reason, epoch, active, quarantined)\n got %v\nwant %v", got, want)
	}
}
