package swaprt

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// hubEvents is one of each event kind the hub derives state from.
var hubEvents = []obs.Event{
	{Kind: obs.KindIterEnd, Rank: 0, Value: 0.1},
	{Kind: obs.KindHandlerProbe, Rank: 0, Value: 100},
	{Kind: obs.KindSwapDecision, Swaps: 1, Verdict: "swap"},
	{Kind: obs.KindSwapCommit, Rank: 0, Peer: 2, Epoch: 1},
	{Kind: obs.KindQuarantine, Peer: 1, Epoch: 1},
}

// TestTelemetryDisabledNoOp pins the atomic guard: a nil hub and a
// disabled hub both drop every event without panicking, and a disabled
// hub reports empty.
func TestTelemetryDisabledNoOp(t *testing.T) {
	var nilHub *TelemetryHub
	for _, ev := range hubEvents {
		nilHub.Observe(ev)
	}
	nilHub.SetActiveSet(1, []int{0})
	nilHub.AttachTracer(nil)
	nilHub.SetCircuitProbe(func() string { return "closed" })
	nilHub.Absorb(&RankTelemetry{Rank: 0})
	if nilHub.RankSnapshot(0, 100) != nil {
		t.Fatal("nil hub produced a snapshot")
	}

	h := NewTelemetryHub(nil)
	h.SetEnabled(false)
	for _, ev := range hubEvents {
		h.Observe(ev)
	}
	h.Absorb(&RankTelemetry{Rank: 3})
	if h.RankSnapshot(0, 100) != nil {
		t.Fatal("disabled hub produced a snapshot")
	}
	rep := h.Report()
	if len(rep.Ranks) != 0 || rep.Decisions.Count != 0 {
		t.Fatalf("disabled hub reported data: %+v", rep)
	}
}

// TestTelemetryHubReport feeds a hub events directly and checks the
// report: per-rank quantiles, anomaly detection with a KindAnomaly trace
// event, decision paybacks, control state, and absorbed-snapshot merging
// with local precedence.
func TestTelemetryHubReport(t *testing.T) {
	now := 0.0
	h := NewTelemetryHub(func() float64 { return now })
	tr := obs.New(2)
	tr.Enable()
	h.AttachTracer(tr)

	// Rank 0: a stable baseline then an 8x excursion — the detector must
	// fire and the hub must both record and trace it.
	for i := 0; i < 16; i++ {
		now = float64(i)
		h.Observe(obs.Event{Kind: obs.KindIterEnd, Rank: 0, Value: 0.1 + 0.001*float64(i%4)})
	}
	now = 16
	h.Observe(obs.Event{Kind: obs.KindIterEnd, Rank: 0, Value: 0.8})
	h.Observe(obs.Event{Kind: obs.KindIterEnd, Rank: 1, Value: 0.2})

	now = 17
	h.SetActiveSet(0, []int{0, 1})
	h.Observe(obs.Event{Kind: obs.KindHandlerProbe, Rank: 0, Value: 123})
	dec := DecideResponse{Swaps: []SwapDirective{{Out: 1, In: 3}, {Out: 0, In: 2}},
		Eval: &core.Explanation{Verdict: "swap", Reason: "gain", Payback: 3.5}}
	ev := dec.DecisionEvent(DecideRequest{IterTime: 0.8, SwapTime: 0.01})
	ev.Dur = 0.002
	h.Observe(ev)
	h.Observe(obs.Event{Kind: obs.KindSwapCommit, Rank: 1, Peer: 3, Epoch: 1})
	h.Observe(obs.Event{Kind: obs.KindQuarantine, Rank: 0, Peer: 2, Epoch: 1})
	h.Observe(obs.Event{Kind: obs.KindMPISend, Rank: 0, Peer: 1}) // not a hub fact
	h.SetCircuitProbe(func() string { return "half-open" })
	h.Absorb(&RankTelemetry{Rank: 5, Iters: 7, Rate: 42})
	h.Absorb(&RankTelemetry{Rank: 0, Iters: 999}) // local rank 0 must win

	rep := h.Report()
	if len(rep.Ranks) != 3 || rep.Ranks[0].Rank != 0 || rep.Ranks[1].Rank != 1 || rep.Ranks[2].Rank != 5 {
		t.Fatalf("ranks = %+v", rep.Ranks)
	}
	r0 := rep.Ranks[0]
	if r0.Iters != 17 {
		t.Fatalf("local rank 0 snapshot overridden by absorbed one: %+v", r0)
	}
	if r0.Anomalies != 1 || r0.LastAnomaly == nil || r0.LastAnomaly.Value != 0.8 {
		t.Fatalf("anomaly not detected: %+v", r0)
	}
	if r0.IterTime.N == 0 || r0.IterTime.P99 < r0.IterTime.P50 {
		t.Fatalf("bad quantiles: %+v", r0.IterTime)
	}
	if r0.Rate != 123 {
		t.Fatalf("probe rate = %g", r0.Rate)
	}
	if rep.Ranks[2].Iters != 7 || rep.Ranks[2].Rate != 42 {
		t.Fatalf("absorbed rank 5 lost: %+v", rep.Ranks[2])
	}

	d := rep.Decisions
	if d.Count != 1 || d.SwapVerdicts != 1 || d.Swaps != 1 || d.Aborts != 1 {
		t.Fatalf("decision counts: %+v", d)
	}
	if d.LastVerdict != "swap" || d.LastPayback != 3.5 || d.Payback.N != 1 || d.Latency.Max != 0.002 {
		t.Fatalf("payback telemetry: %+v", d)
	}
	if rep.Epoch != 1 || !reflect.DeepEqual(rep.ActiveSet, []int{0, 3}) {
		t.Fatalf("epoch/active set: %d %v", rep.Epoch, rep.ActiveSet)
	}
	if snap := h.RankSnapshot(0, 456); snap == nil || snap.Rate != 456 || snap.Iters != 17 {
		t.Fatalf("piggyback snapshot must carry the report's own probe: %+v", snap)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != 2 {
		t.Fatalf("quarantined: %v", rep.Quarantined)
	}
	if rep.Circuit != "half-open" {
		t.Fatalf("circuit: %q", rep.Circuit)
	}

	found := false
	for _, ev := range tr.Events() {
		if ev.Kind == obs.KindAnomaly && ev.Rank == 0 && ev.Z > 0 && ev.Detail == "iter_time" {
			found = true
		}
	}
	if !found {
		t.Fatal("no KindAnomaly event traced")
	}
}

// TestTelemetryHandler pins the /telemetry JSON contract (including the
// nil-hub empty document) that cmd/swapmon parses.
func TestTelemetryHandler(t *testing.T) {
	h := NewTelemetryHub(nil)
	h.Observe(obs.Event{Kind: obs.KindIterEnd, Rank: 1, Value: 0.1})
	srv := httptest.NewServer(TelemetryHandler(h))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var rep TelemetryReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Ranks) != 1 || rep.Ranks[0].Rank != 1 {
		t.Fatalf("report %+v", rep)
	}

	srv2 := httptest.NewServer(TelemetryHandler(nil))
	defer srv2.Close()
	resp2, err := srv2.Client().Get(srv2.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var rep2 TelemetryReport
	if err := json.NewDecoder(resp2.Body).Decode(&rep2); err != nil {
		t.Fatal(err)
	}
	if rep2.Ranks == nil || len(rep2.Ranks) != 0 {
		t.Fatalf("nil-hub report %+v", rep2)
	}
}

// TestTelemetryThroughRuntime runs a real swapping run with a hub
// attached and checks that iterations, the decision stream, the epoch
// and the swap land in the report — and that handler reports piggyback
// rank snapshots to the decider.
func TestTelemetryThroughRuntime(t *testing.T) {
	w := mpi.NewWorld(3)
	clk := &fakeClock{step: 0.05}
	rt := &rateTable{rates: []float64{100, 100, 1000}} // rank 2 is a fast spare
	hub := NewTelemetryHub(clk.now)
	err := Run(w, Config{
		Active:    2,
		Policy:    core.Greedy(),
		Probe:     rt.probe,
		Clock:     clk.now,
		Telemetry: hub,
	}, iterBody(20, nil))
	if err != nil {
		t.Fatal(err)
	}
	rep := hub.Report()
	if rep.Decisions.Count == 0 {
		t.Fatalf("no decisions observed: %+v", rep.Decisions)
	}
	if rep.Decisions.Swaps == 0 || rep.Epoch == 0 {
		t.Fatalf("swap not observed: %+v", rep)
	}
	if len(rep.Ranks) == 0 {
		t.Fatal("no rank telemetry")
	}
	var iters int
	for _, r := range rep.Ranks {
		iters += r.Iters
	}
	if iters == 0 {
		t.Fatal("no iterations observed")
	}
}

// snapshotCheckDecider records, for every handler report, whether the
// piggybacked snapshot carries the report's own probe.
type snapshotCheckDecider struct {
	*LocalDecider
	mu           sync.Mutex
	reports, bad int
}

func (d *snapshotCheckDecider) Report(r ReportMsg) error {
	d.mu.Lock()
	d.reports++
	if r.Telemetry == nil || r.Telemetry.Rank != r.Rank || r.Telemetry.Rate != r.Rate {
		d.bad++
	}
	d.mu.Unlock()
	return d.LocalDecider.Report(r)
}

// TestHandlerSnapshotCarriesProbe: every probe reading differs, and the
// snapshot a handler piggybacks on its report must carry that same
// reading, not the previous interval's.
func TestHandlerSnapshotCarriesProbe(t *testing.T) {
	var reading atomic.Int64
	d := &snapshotCheckDecider{LocalDecider: NewLocalDecider(core.Greedy())}
	err := Run(mpi.NewWorld(2), Config{
		Active:          1,
		Decider:         d,
		Probe:           func(int) float64 { return float64(reading.Add(1)) },
		HandlerInterval: time.Millisecond,
		Telemetry:       NewTelemetryHub(nil),
	}, func(s *Session) error {
		iter := 0
		s.Register("iter", &iter)
		for !s.Done() && iter < 5 {
			if s.Active() {
				time.Sleep(5 * time.Millisecond) // give handlers room to tick
				iter++
			}
			if err := s.SwapPoint(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.reports == 0 || d.bad != 0 {
		t.Fatalf("%d of %d handler reports piggybacked a snapshot without their own probe", d.bad, d.reports)
	}
}
