package strategy

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/swaprt/policylens"
)

// TestAuditGolden pins tracecheck's lens-audit section end to end: a fixed-seed
// simulated Swap run's JSONL trace must replay to a byte-identical
// policy-lens audit in which every committed swap carries realized
// payback attribution. A lens attached to the kernel tracer audits the
// sim's decisions as it does the live runtime's, on the virtual clock,
// so the audit — shadow scoreboard, realizations,
// violations — is fully deterministic; any diff here is a behavior
// change in the simulator, the lens, or the audit. Regenerate
// deliberately with: go test ./internal/strategy -run AuditGolden
// -update-golden
func TestAuditGolden(t *testing.T) {
	res, events := tracedSwapRun(63)
	if res.Swaps == 0 {
		t.Fatal("seed 63 no longer swaps; pick a seed that exercises the lens")
	}
	shadows := 0
	for _, ev := range events {
		if ev.Kind == obs.KindShadowDecision {
			shadows++
		}
	}
	if shadows == 0 {
		t.Fatal("sim run produced no lens attribution")
	}

	// Round-trip through the JSONL file format, exactly as tracecheck does.
	tr := obs.New(4)
	tr.Enable()
	for _, ev := range events {
		tr.Emit(ev)
	}
	var jb strings.Builder
	if err := tr.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	parsed, err := obs.ReadJSONL(strings.NewReader(jb.String()))
	if err != nil {
		t.Fatal(err)
	}

	audit := policylens.Audit(parsed, policylens.AuditConfig{})
	if !audit.OK() {
		t.Fatalf("audit violations on a lens-instrumented sim trace: %v", audit.Violations)
	}
	if audit.Committed == 0 {
		t.Fatal("audit saw no committed swaps in a trace with swaps")
	}
	var rep strings.Builder
	if err := audit.WriteReport(&rep); err != nil {
		t.Fatal(err)
	}
	got := rep.String()

	golden := filepath.Join("testdata", "audit_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if got != string(want) {
		t.Errorf("audit report diverged from golden (regenerate with -update-golden if intended)\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// A second full pipeline run must reproduce the audit byte for byte —
	// the "byte-identical lens events on the virtual clock" contract.
	_, events2 := tracedSwapRun(63)
	var rep2 strings.Builder
	if err := policylens.Audit(events2, policylens.AuditConfig{}).WriteReport(&rep2); err != nil {
		t.Fatal(err)
	}
	if rep2.String() != got {
		t.Error("re-run audit differs: lens pipeline not deterministic")
	}
}
