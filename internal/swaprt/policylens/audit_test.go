package policylens

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// committedSwapTrace is a minimal trace of one committed swap: the
// decision at epoch 0 proposes epoch 1, a StateTransfer carries the new
// epoch (commit evidence), and n further decisions follow.
func committedSwapTrace(n int, realized bool) []obs.Event {
	evs := []obs.Event{
		{Kind: obs.KindSwapDecision, Rank: obs.RankRuntime, T: 1, Swaps: 1, Epoch: 0, Verdict: "swap"},
		{Kind: obs.KindStateTransfer, Rank: 0, T: 1.5, Peer: 2, Epoch: 1},
	}
	for i := 0; i < n; i++ {
		evs = append(evs, obs.Event{Kind: obs.KindSwapDecision, Rank: obs.RankRuntime,
			T: float64(2 + i), Swaps: 0, Epoch: 1, Verdict: "stay"})
	}
	if realized {
		evs = append(evs, obs.Event{Kind: obs.KindPaybackRealized, Rank: obs.RankRuntime,
			T: 10, Epoch: 1, Verdict: "ok", Payback: 0.4, Value: 0.4})
	}
	return evs
}

func TestAuditAcceptsRealizedCommit(t *testing.T) {
	res := Audit(committedSwapTrace(4, true), AuditConfig{Window: 4})
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Committed != 1 || res.Realized != 1 || res.Pending != 0 {
		t.Fatalf("committed=%d realized=%d pending=%d", res.Committed, res.Realized, res.Pending)
	}
}

func TestAuditFlagsMissingRealization(t *testing.T) {
	res := Audit(committedSwapTrace(4, false), AuditConfig{Window: 4})
	if res.OK() {
		t.Fatal("missing realization not flagged")
	}
	if !strings.Contains(res.Violations[0], "no realized payback") {
		t.Fatalf("violation %q", res.Violations[0])
	}
}

func TestAuditToleratesPendingAtTraceEnd(t *testing.T) {
	// Only 3 decisions after the commit with a window of 4: the lens
	// could not have realized it yet.
	res := Audit(committedSwapTrace(3, false), AuditConfig{Window: 4})
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Pending != 1 {
		t.Fatalf("pending=%d, want 1", res.Pending)
	}
}

func TestAuditIgnoresAbortedProposal(t *testing.T) {
	// A swap decision whose epoch never appears again is an aborted (or
	// run-ending) proposal, not a violation.
	evs := []obs.Event{
		{Kind: obs.KindSwapDecision, Rank: obs.RankRuntime, T: 1, Swaps: 1, Epoch: 0, Verdict: "swap"},
		{Kind: obs.KindSwapAbort, Rank: 0, T: 1.5, Peer: 2, Epoch: 1},
		{Kind: obs.KindSwapDecision, Rank: obs.RankRuntime, T: 2, Swaps: 0, Epoch: 0, Verdict: "stay"},
	}
	res := Audit(evs, AuditConfig{Window: 1})
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Committed != 0 {
		t.Fatalf("committed=%d, want 0", res.Committed)
	}
}

func TestAuditFlagsOrphanRealization(t *testing.T) {
	evs := []obs.Event{
		{Kind: obs.KindPaybackRealized, Rank: obs.RankRuntime, T: 1, Epoch: 7, Verdict: "ok"},
	}
	res := Audit(evs, AuditConfig{})
	if res.OK() || !strings.Contains(res.Violations[0], "never committed") {
		t.Fatalf("orphan realization not flagged: %v", res.Violations)
	}
}

func TestAuditFlagsInconsistentOKVerdict(t *testing.T) {
	evs := committedSwapTrace(4, false)
	evs = append(evs, obs.Event{Kind: obs.KindPaybackRealized, Rank: obs.RankRuntime,
		T: 10, Epoch: 1, Verdict: "ok", Z: 3.0}) // error way over tolerance
	res := Audit(evs, AuditConfig{Window: 4, Tolerance: 0.5})
	if res.OK() {
		t.Fatal("inconsistent ok verdict not flagged")
	}
	found := false
	for _, v := range res.Violations {
		if strings.Contains(v, "claims ok but error") {
			found = true
		}
	}
	if !found {
		t.Fatalf("violations %v", res.Violations)
	}
}

func TestAuditCountsMispredictFindings(t *testing.T) {
	evs := committedSwapTrace(4, false)
	evs = append(evs, obs.Event{Kind: obs.KindPaybackRealized, Rank: obs.RankRuntime,
		T: 10, Epoch: 1, Verdict: "mispredict", Z: 2.0, Payback: 1.2, Value: 0.4})
	res := Audit(evs, AuditConfig{Window: 4})
	if !res.OK() {
		t.Fatalf("mispredict must be a finding, not a violation: %v", res.Violations)
	}
	if res.Mispredicts != 1 || len(res.Findings) != 1 {
		t.Fatalf("mispredicts=%d findings=%d", res.Mispredicts, len(res.Findings))
	}
}

func TestAuditShadowSummary(t *testing.T) {
	evs := []obs.Event{
		{Kind: obs.KindShadowDecision, Rank: obs.RankRuntime, T: 1, Detail: "safe",
			Reason: "agree: payback ok", Swaps: 1, Value: 2},
		{Kind: obs.KindShadowDecision, Rank: obs.RankRuntime, T: 2, Detail: "safe",
			Reason: "diverge: payback too long", Swaps: 0, Value: -3},
		{Kind: obs.KindShadowDecision, Rank: obs.RankRuntime, T: 2, Detail: "greedy",
			Reason: "diverge: any gain", Swaps: 1, Value: 4},
	}
	res := Audit(evs, AuditConfig{})
	if len(res.Shadow) != 2 {
		t.Fatalf("shadow rows %d, want 2", len(res.Shadow))
	}
	// Sorted by policy name: greedy, safe.
	g, s := res.Shadow[0], res.Shadow[1]
	if g.Policy != "greedy" || s.Policy != "safe" {
		t.Fatalf("order %s,%s", g.Policy, s.Policy)
	}
	if g.WouldSwap != 1 || g.ItersWon != 4 {
		t.Fatalf("greedy %+v", g)
	}
	if s.Decisions != 2 || s.Agreements != 1 || s.WouldStay != 1 || s.ItersWon != 2 || s.ItersLost != 3 {
		t.Fatalf("safe %+v", s)
	}
}

func TestAuditReportDeterministic(t *testing.T) {
	evs := committedSwapTrace(4, true)
	evs = append(evs, obs.Event{Kind: obs.KindShadowDecision, Rank: obs.RankRuntime,
		T: 1, Detail: "greedy", Reason: "agree: x", Swaps: 1, Value: 1})
	var a, b strings.Builder
	if err := Audit(evs, AuditConfig{Window: 4}).WriteReport(&a); err != nil {
		t.Fatal(err)
	}
	if err := Audit(evs, AuditConfig{Window: 4}).WriteReport(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("audit report not deterministic:\n%s\n---\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), "audit ok") {
		t.Fatalf("report:\n%s", a.String())
	}
}

// TestSettleRule pins the commit rule the lens and Audit share, for a
// round proposed at epoch 2.
func TestSettleRule(t *testing.T) {
	cases := []struct {
		ev   obs.Event
		want Settlement
	}{
		{obs.Event{Kind: obs.KindSwapCommit, Epoch: 2}, Committed},
		{obs.Event{Kind: obs.KindIterStart, Epoch: 2}, Committed},
		{obs.Event{Kind: obs.KindStateTransfer, Epoch: 2}, Committed},
		{obs.Event{Kind: obs.KindSwapDecision, Epoch: 2}, Committed},
		{obs.Event{Kind: obs.KindQuarantine, Epoch: 2}, Committed}, // a partial commit
		{obs.Event{Kind: obs.KindQuarantine, Epoch: 1}, Aborted},
		{obs.Event{Kind: obs.KindSwapDecision, Epoch: 1}, Aborted},
		{obs.Event{Kind: obs.KindSwapAbort, Epoch: 2}, Unsettled},
		{obs.Event{Kind: obs.KindPaybackRealized, Epoch: 2}, Unsettled},
		{obs.Event{Kind: obs.KindShadowDecision, Epoch: 1}, Unsettled},
		{obs.Event{Kind: obs.KindIterEnd, Epoch: 1}, Unsettled},
		{obs.Event{Kind: obs.KindManagerAssign, Epoch: 1}, Unsettled},
	}
	for _, c := range cases {
		if got := Settle(c.ev, 2); got != c.want {
			t.Errorf("Settle(%s at epoch %d, 2) = %d, want %d", c.ev.Kind, c.ev.Epoch, got, c.want)
		}
	}
}
