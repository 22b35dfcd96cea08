package swaprt

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/mpi/fault"
	"repro/internal/swaprt/policylens"
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

// leaderClock is a Config.Clock that only the iteration body moves, so
// reading it from any rank never changes what the leader measures.
type leaderClock struct {
	mu sync.Mutex
	t  float64
}

func (c *leaderClock) now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *leaderClock) advance(d float64) {
	c.mu.Lock()
	c.t += d
	c.mu.Unlock()
}

// lensParityRun is the parity world with a policy lens attached. Each
// iteration lasts 1/(slowest active rate) on the leader's clock, so the
// lens sees real post-swap speedups; a 6 ms link latency makes the
// paper's safe policy refuse the swaps greedy takes. evicted, when set,
// reclaims its hosts from the fifth decision on.
func lensParityRun(t *testing.T, evicted func(int) bool) (RunStats, policylens.Report) {
	t.Helper()
	fake := clock.NewFake()
	w, err := mpi.NewWorldWithConfig(mpi.Config{Size: 4, Clock: fake,
		Fault: fault.MustParse("refuse:src=0,dst=2,count=1")})
	if err != nil {
		t.Fatal(err)
	}
	rt := &rateTable{rates: []float64{100, 200, 1000, 500}}
	clk := &leaderClock{}
	lat := 0.006
	cfg := Config{Active: 2, Policy: core.Greedy(), Probe: rt.probe, Clock: clk.now,
		Time: fake, LinkLatency: &lat, Lens: policylens.New(policylens.Config{})}
	if evicted != nil {
		cfg.Evicted = func(r int) bool { return evicted(r) && clk.now() > 0.032 }
	}
	stats, err := RunWithStats(w, cfg, func(s *Session) error {
		iter := 0
		s.Register("iter", &iter)
		for !s.Done() && iter < 8 {
			if s.Active() {
				slowest, err := s.Comm().AllReduceFloat64(mpi.OpMax, 1/rt.probe(s.Rank()))
				if err != nil {
					return err
				}
				if s.Comm().Rank() == 0 {
					clk.advance(slowest)
				}
				iter++
			}
			if err := s.SwapPoint(); err != nil {
				return err
			}
		}
		fake.Advance(time.Hour)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return stats, cfg.Lens.Report()
}

// TestLensParity pins the policy lens on the parity world. The expected
// reports were captured from the runtime before the lens became an event
// sink, when the leader handed it each decision and outcome by call; the
// sink must reproduce them. Round 1 commits 1→3 (0→2 is refused and
// aborted), round 2 commits 0→1, and both realize. In the eviction run
// rank 3's host is reclaimed at the fifth decision, where the decider
// stays: the forced move 3→0 commits epoch 3 but must not reach the
// lens, whose scoreboard would otherwise record a swap every shadow
// refused. It changes only the iteration times the epoch-2 prediction
// is scored on.
func TestLensParity(t *testing.T) {
	// Gob numbers types in the order a process first meets them, so the
	// state size, and with it the predicted swap time, can move by a
	// byte with test order; the estimates below move with it.
	const tol = 1e-3
	shadow := []policylens.PolicyScore{
		{Policy: "greedy", Decisions: 8, Agreements: 8},
		{Policy: "safe", Decisions: 8, Agreements: 6, WouldStay: 2, ItersLost: 68.799948},
		{Policy: "friendly", Decisions: 8, Agreements: 8},
	}
	for _, tc := range []struct {
		name    string
		evicted func(int) bool
		swaps   int
		lastErr float64
	}{
		{"plain", nil, 2, 0},
		{"evicted", func(r int) bool { return r == 3 }, 3, 1.0 / 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stats, rep := lensParityRun(t, tc.evicted)
			if stats.Swaps != tc.swaps || stats.SwapAborts != 1 {
				t.Fatalf("swaps=%d aborts=%d, want %d/1", stats.Swaps, stats.SwapAborts, tc.swaps)
			}
			got := []int{rep.Decisions, rep.Commits, rep.Aborts, rep.Tracking, rep.Realized, rep.Mispredicts}
			if want := []int{8, 2, 0, 0, 2, 1}; !reflect.DeepEqual(got, want) {
				t.Errorf("decisions, commits, aborts, tracking, realized, mispredicts\n got %v\nwant %v", got, want)
			}
			if rep.Last == nil || math.Abs(rep.Last.Err-tc.lastErr) > tol {
				t.Errorf("last realization %+v, want error %g", rep.Last, tc.lastErr)
			}
			if len(rep.Shadow) != len(shadow) {
				t.Fatalf("shadow %+v", rep.Shadow)
			}
			for i, want := range shadow {
				g := rep.Shadow[i]
				lost := g.ItersLost
				g.ItersLost = want.ItersLost
				if g != want || math.Abs(lost-want.ItersLost) > tol {
					t.Errorf("shadow %s: got %+v (lost %g), want %+v", want.Policy, rep.Shadow[i], lost, want)
				}
			}
		})
	}
}
