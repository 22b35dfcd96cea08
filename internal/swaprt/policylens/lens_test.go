package policylens

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// swapInput is a decision input where every policy with a finite
// appetite would swap: one slow active host, one double-speed spare.
func swapInput() core.DecideInput {
	return core.DecideInput{
		Active:   []core.Candidate{{ID: 0, Rate: 1.0}, {ID: 1, Rate: 2.0}},
		Spare:    []core.Candidate{{ID: 2, Rate: 2.0}},
		IterTime: 10,
		SwapTime: 2,
	}
}

// decision is the SwapDecision event a decider emits for pol's verdict
// on in, carrying the input the lens replays.
func decision(pol core.Policy, t float64, epoch uint64, in core.DecideInput) obs.Event {
	pairs, exp := pol.DecideExplained(in)
	return obs.Event{Kind: obs.KindSwapDecision, Rank: obs.RankRuntime, T: t, Epoch: epoch,
		IterTime: in.IterTime, SwapTime: in.SwapTime, Swaps: len(pairs),
		OldPerf: exp.OldPerf, NewPerf: exp.NewPerf, Payback: exp.Payback,
		Verdict: exp.Verdict, Reason: exp.Reason, Input: &in}
}

// decideWith feeds the lens pol's decision on in and reports the swaps
// it ordered.
func decideWith(l *Lens, pol core.Policy, t float64, epoch uint64, in core.DecideInput) int {
	ev := decision(pol, t, epoch, in)
	l.Observe(ev)
	return ev.Swaps
}

// commit is the runtime's commit evidence for epoch: the leader's
// SwapCommit record.
func commit(t float64, epoch uint64) obs.Event {
	return obs.Event{Kind: obs.KindSwapCommit, Rank: 0, Peer: 2, T: t, Epoch: epoch}
}

// sample is a later swap point at epoch measuring iterTime: a stay
// decision (no spares left), whose iteration time every tracked
// prediction collects.
func sample(l *Lens, t float64, epoch uint64, iterTime float64) {
	decideWith(l, core.Greedy(), t, epoch, core.DecideInput{
		Active: []core.Candidate{{ID: 2, Rate: 2.0}}, IterTime: iterTime, SwapTime: 2})
}

func TestLensRealizesAccuratePrediction(t *testing.T) {
	tr := obs.New(1)
	tr.Enable()
	l := New(Config{Tracer: tr, RealizeAfter: 2})

	in := swapInput()
	if n := decideWith(l, core.Greedy(), 1.0, 0, in); n != 1 {
		t.Fatalf("greedy ordered %d swaps, want 1", n)
	}
	l.Observe(commit(1.1, 1))

	// The pair halves the bottleneck's iteration contribution: predicted
	// post-swap iteration time 10*1/2 = 5s, predicted payback
	// (2/10)/(1-1/2) = 0.4 iterations. Feed exactly the predicted
	// iteration times: realized payback 2/(10-5) = 0.4, error 0.
	sample(l, 11, 1, 5)
	sample(l, 21, 1, 5)

	rep := l.Report()
	if rep.Realized != 1 || rep.Mispredicts != 0 {
		t.Fatalf("realized=%d mispredicts=%d, want 1/0", rep.Realized, rep.Mispredicts)
	}
	last := rep.Last
	if last == nil || last.Epoch != 1 {
		t.Fatalf("last realization missing or wrong epoch: %+v", last)
	}
	if math.Abs(last.RealPayback-0.4) > 1e-9 || math.Abs(last.PredPayback-0.4) > 1e-9 {
		t.Fatalf("payback pred=%g real=%g, want 0.4/0.4", last.PredPayback, last.RealPayback)
	}
	if !last.OK || last.Err != 0 {
		t.Fatalf("realization not scored ok: %+v", last)
	}

	var realized []obs.Event
	for _, ev := range tr.Events() {
		if ev.Kind == obs.KindPaybackRealized {
			realized = append(realized, ev)
		}
	}
	if len(realized) != 1 {
		t.Fatalf("got %d PaybackRealized events, want 1", len(realized))
	}
	if realized[0].Verdict != "ok" || realized[0].Epoch != 1 {
		t.Fatalf("realized event %+v", realized[0])
	}
}

func TestLensFlagsNeverPayingSwap(t *testing.T) {
	l := New(Config{RealizeAfter: 2})
	in := swapInput()
	decideWith(l, core.Greedy(), 1.0, 0, in)
	l.Observe(commit(1.1, 1))

	// Post-swap iterations as slow as before: the swap never pays back.
	sample(l, 11, 1, 10)
	sample(l, 21, 1, 10)

	rep := l.Report()
	if rep.Realized != 1 || rep.Mispredicts != 1 {
		t.Fatalf("realized=%d mispredicts=%d, want 1/1", rep.Realized, rep.Mispredicts)
	}
	if rep.Last == nil || !rep.Last.NeverPaysOff || rep.Last.RealPayback != 0 {
		t.Fatalf("never-pays-off not recorded: %+v", rep.Last)
	}
	if f := rep.MispredictFraction(); f != 1 {
		t.Fatalf("mispredict fraction %g, want 1", f)
	}
}

func TestLensDropsAbortedProposal(t *testing.T) {
	l := New(Config{RealizeAfter: 1})
	decideWith(l, core.Greedy(), 1.0, 0, swapInput())
	// Every directive aborted: the leader quarantines the spare and the
	// run stays in epoch 0.
	l.Observe(obs.Event{Kind: obs.KindQuarantine, Rank: 0, Peer: 2, T: 1.1, Epoch: 0})

	sample(l, 11, 0, 5)
	rep := l.Report()
	if rep.Aborts != 1 || rep.Commits != 0 || rep.Realized != 0 {
		t.Fatalf("aborts=%d commits=%d realized=%d, want 1/0/0",
			rep.Aborts, rep.Commits, rep.Realized)
	}
}

func TestLensShadowScoreboard(t *testing.T) {
	// Primary is safe (payback threshold 0.5): with payback 0.4 it
	// swaps; shrink the horizon so won/lost numbers stay small.
	l := New(Config{Horizon: 10})
	in := swapInput()
	decideWith(l, core.Safe(), 1.0, 0, in)

	rep := l.Report()
	if len(rep.Shadow) != 3 {
		t.Fatalf("shadow panel has %d rows, want 3", len(rep.Shadow))
	}
	byName := map[string]PolicyScore{}
	for _, s := range rep.Shadow {
		if s.Decisions != 1 {
			t.Fatalf("policy %s decisions=%d, want 1", s.Policy, s.Decisions)
		}
		byName[s.Policy] = s
	}
	// Greedy and safe agree with the swap; friendly's 2% minimum app
	// improvement is cleared too (bottleneck doubles), so all agree.
	for _, name := range []string{"greedy", "safe", "friendly"} {
		if byName[name].Agreements != 1 {
			t.Fatalf("policy %s agreements=%d, want 1 (%+v)", name, byName[name].Agreements, byName[name])
		}
	}
	if rep.ShadowDecisions() != 3 {
		t.Fatalf("ShadowDecisions()=%d, want 3", rep.ShadowDecisions())
	}

	// Now a marginal input: payback 4 iterations — greedy/friendly still
	// swap, safe refuses. Primary greedy swaps, so safe diverges
	// (would-stay) and forfeits the primary's estimated gain.
	marginal := core.DecideInput{
		Active:   []core.Candidate{{ID: 0, Rate: 1.0}},
		Spare:    []core.Candidate{{ID: 2, Rate: 2.0}},
		IterTime: 1,
		SwapTime: 2,
	}
	decideWith(l, core.Greedy(), 2.0, 0, marginal)
	rep = l.Report()
	for _, s := range rep.Shadow {
		if s.Policy != "safe" {
			continue
		}
		if s.WouldStay != 1 {
			t.Fatalf("safe would-stay=%d, want 1 (%+v)", s.WouldStay, s)
		}
		// Forfeited gain: s=0.5, H=10, payback 4 → 0.5*(10-4) = 3
		// iterations lost.
		if math.Abs(s.ItersLost-3) > 1e-9 {
			t.Fatalf("safe iters lost %g, want 3", s.ItersLost)
		}
	}
}

func TestLensShadowEventsEmitted(t *testing.T) {
	tr := obs.New(1)
	tr.Enable()
	l := New(Config{Tracer: tr})
	decideWith(l, core.Greedy(), 1.0, 5, swapInput())

	var shadows []obs.Event
	for _, ev := range tr.Events() {
		if ev.Kind == obs.KindShadowDecision {
			shadows = append(shadows, ev)
		}
	}
	if len(shadows) != 3 {
		t.Fatalf("got %d ShadowDecision events, want 3", len(shadows))
	}
	names := map[string]bool{}
	for _, ev := range shadows {
		names[ev.Detail] = true
		if ev.Epoch != 5 || ev.T != 1.0 {
			t.Fatalf("shadow event carries wrong decision context: %+v", ev)
		}
	}
	for _, n := range []string{"greedy", "safe", "friendly"} {
		if !names[n] {
			t.Fatalf("no shadow event for policy %s (have %v)", n, names)
		}
	}
}

func TestLensNilAndDisabledAreInert(t *testing.T) {
	var nilLens *Lens
	nilLens.Observe(decision(core.Greedy(), 1.0, 0, swapInput()))
	nilLens.Observe(commit(1.1, 1))
	nilLens.SetEnabled(true)
	if rep := nilLens.Report(); rep.Enabled || rep.Shadow == nil {
		t.Fatalf("nil lens report %+v", rep)
	}

	l := New(Config{})
	l.SetEnabled(false)
	decideWith(l, core.Greedy(), 1.0, 0, swapInput())
	if rep := l.Report(); rep.Enabled || rep.Decisions != 0 {
		t.Fatalf("disabled lens recorded: %+v", rep)
	}
}

// TestLensReportJSONSafe pins the no-Inf/NaN contract: every report and
// event the lens produces must survive encoding/json, including after a
// prediction whose payback the policy reported as +Inf-adjacent.
func TestLensReportJSONSafe(t *testing.T) {
	l := New(Config{RealizeAfter: 1})
	decideWith(l, core.Greedy(), 1.0, 0, swapInput())
	l.Observe(commit(1.1, 1))
	sample(l, 11, 1, 10) // never pays back

	if _, err := json.Marshal(l.Report()); err != nil {
		t.Fatalf("report not JSON-encodable: %v", err)
	}
}

func TestLensHandlerServesReport(t *testing.T) {
	l := New(Config{})
	decideWith(l, core.Greedy(), 1.0, 0, swapInput())
	rep := l.Report()
	if !rep.Enabled || rep.Decisions != 1 {
		t.Fatalf("report %+v", rep)
	}
	// Handler is exercised end-to-end by the smoke; here just pin the
	// nil-lens path stays serving.
	if Handler(nil) == nil {
		t.Fatal("nil-lens handler is nil")
	}
}

// TestLensIgnoresDecisionWithoutInput pins the replay contract: a
// decision that does not carry its decider's input cannot be replayed,
// so the lens neither counts it nor arms a prediction from it.
func TestLensIgnoresDecisionWithoutInput(t *testing.T) {
	l := New(Config{RealizeAfter: 1})
	ev := decision(core.Greedy(), 1.0, 0, swapInput())
	ev.Input = nil
	l.Observe(ev)
	l.Observe(commit(1.1, 1))
	rep := l.Report()
	if rep.Decisions != 0 || rep.Commits != 0 || rep.Tracking != 0 || rep.ShadowDecisions() != 0 {
		t.Fatalf("input-less decision was audited: %+v", rep)
	}
}

// TestLensSettlesAtNextDecision covers the swap manager's view: it sees
// no commit or quarantine, only the next request, whose epoch tells
// whether the proposed round landed.
func TestLensSettlesAtNextDecision(t *testing.T) {
	l := New(Config{RealizeAfter: 1})
	decideWith(l, core.Greedy(), 1.0, 0, swapInput()) // proposes epoch 1
	sample(l, 2.0, 0, 10)                             // still epoch 0: aborted
	decideWith(l, core.Greedy(), 3.0, 0, swapInput()) // proposes epoch 1 again
	sample(l, 4.0, 1, 5)                              // epoch 1: committed, and sampled
	rep := l.Report()
	if rep.Aborts != 1 || rep.Commits != 1 || rep.Realized != 1 || rep.Mispredicts != 0 {
		t.Fatalf("aborts=%d commits=%d realized=%d mispredicts=%d, want 1/1/1/0",
			rep.Aborts, rep.Commits, rep.Realized, rep.Mispredicts)
	}
}

// BenchmarkLensDisabled pins the disabled-path overhead the acceptance
// criteria record in BENCH_obs.json: one atomic load per event, no
// allocations.
func BenchmarkLensDisabled(b *testing.B) {
	l := New(Config{})
	l.SetEnabled(false)
	ev := decision(core.Greedy(), 1.0, 0, swapInput())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Observe(ev)
	}
}

// BenchmarkLensNil pins the nil-lens cost (the default configuration).
func BenchmarkLensNil(b *testing.B) {
	var l *Lens
	ev := decision(core.Greedy(), 1.0, 0, swapInput())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Observe(ev)
	}
}
