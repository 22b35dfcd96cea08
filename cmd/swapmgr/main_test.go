package main

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/swaprt"
	"repro/internal/swaprt/policylens"
)

// TestMeteredDeciderLensParity drives a scripted request sequence
// through the metered decider with a lens attached. The expected
// numbers were captured before the lens became an event sink, when the
// leader's outcome messages told it which rounds committed. The manager
// now learns that only from the next request: a round proposed for
// epoch P counts as committed when the next request carries epoch P and
// as aborted when it still carries P−1.
func TestMeteredDeciderLensParity(t *testing.T) {
	reg := obs.NewRegistry()
	lens := policylens.New(policylens.Config{Registry: reg})
	d := newMeteredDecider(swaprt.NewLocalDecider(core.Greedy()), swaprt.NewTelemetryHub(nil), lens, reg)
	type step struct {
		epoch          uint64
		active, spare  []int
		arates, srates []float64
		iter           float64
		swaps          int
	}
	steps := []step{
		{0, []int{0, 1}, []int{2, 3}, []float64{100, 200}, []float64{1000, 150}, 1.0, 1}, // proposes epoch 1
		{1, []int{2, 1}, []int{0, 3}, []float64{1000, 200}, []float64{100, 150}, 0.6, 0}, // committed
		{1, []int{2, 1}, []int{0, 3}, []float64{1000, 200}, []float64{100, 150}, 0.55, 0},
		{1, []int{2, 1}, []int{0, 3}, []float64{1000, 200}, []float64{100, 800}, 0.5, 1}, // proposes epoch 2
		{1, []int{2, 1}, []int{0, 3}, []float64{1000, 200}, []float64{100, 800}, 0.5, 1}, // aborted; proposes again
		{2, []int{2, 3}, []int{0, 1}, []float64{1000, 800}, []float64{100, 200}, 0.3, 0}, // committed
		{2, []int{2, 3}, []int{0, 1}, []float64{1000, 800}, []float64{100, 200}, 0.3, 0},
		{2, []int{2, 3}, []int{0, 1}, []float64{1000, 800}, []float64{100, 200}, 0.25, 0},
		{2, []int{2, 3}, []int{0, 1}, []float64{1000, 800}, []float64{100, 200}, 0.3, 0},
		{2, []int{2, 3}, []int{0, 1}, []float64{1000, 800}, []float64{100, 200}, 0.3, 0},
	}
	for i, s := range steps {
		resp, err := d.Decide(swaprt.DecideRequest{Epoch: s.epoch, Now: float64(i + 1),
			ActiveSet: s.active, ActiveRates: s.arates, SpareSet: s.spare, SpareRates: s.srates,
			IterTime: s.iter, SwapTime: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Swaps) != s.swaps {
			t.Fatalf("step %d: %d swaps, want %d", i, len(resp.Swaps), s.swaps)
		}
	}
	rep := lens.Report()
	if rep.Decisions != 10 || rep.Commits != 2 || rep.Aborts != 1 || rep.Tracking != 0 ||
		rep.Realized != 2 || rep.Mispredicts != 2 {
		t.Errorf("decisions=%d commits=%d aborts=%d tracking=%d realized=%d mispredicts=%d, want 10/2/1/0/2/2",
			rep.Decisions, rep.Commits, rep.Aborts, rep.Tracking, rep.Realized, rep.Mispredicts)
	}
	want := []policylens.PolicyScore{
		{Policy: "greedy", Decisions: 10, Agreements: 10},
		{Policy: "safe", Decisions: 10, Agreements: 8, WouldStay: 2, ItersLost: 74.2},
		{Policy: "friendly", Decisions: 10, Agreements: 10},
	}
	if len(rep.Shadow) != len(want) {
		t.Fatalf("shadow %+v", rep.Shadow)
	}
	for i, w := range want {
		g := rep.Shadow[i]
		if math.Abs(g.ItersLost-w.ItersLost) > 1e-9 {
			t.Errorf("shadow %s lost %g, want %g", w.Policy, g.ItersLost, w.ItersLost)
		}
		g.ItersLost = w.ItersLost
		if g != w {
			t.Errorf("shadow %s: got %+v, want %+v", w.Policy, rep.Shadow[i], w)
		}
	}
}
