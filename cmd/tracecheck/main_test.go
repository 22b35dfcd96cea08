package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// decision is a complete stay verdict at time t and epoch e.
func decision(t float64, e uint64) obs.Event {
	return obs.Event{Kind: obs.KindSwapDecision, T: t, Epoch: e, Verdict: "stay", Reason: "payback beyond horizon"}
}

func circuit(t float64, detail string) obs.Event {
	return obs.Event{Kind: obs.KindCircuit, Rank: obs.RankRuntime, T: t, Detail: detail}
}

func recovery(t float64, records string) obs.Event {
	return obs.Event{Kind: obs.KindMgrRecover, Rank: obs.RankRuntime, T: t, Epoch: 1,
		Detail: "wal-replay records=" + records + " epoch=1 quarantined=0 pending=true owner=mgr-2"}
}

// send and recv are one message from rank 0 to rank 1; recvLC is the
// receiver's clock after the receive, which must exceed the sender's 5.
func send() obs.Event {
	return obs.Event{Kind: obs.KindMsgSend, Rank: 0, T: 1, Peer: 1, LC: 5, Seq: 1}
}

func recv(recvLC uint64) obs.Event {
	return obs.Event{Kind: obs.KindMsgRecv, Rank: 1, T: 2, Peer: 0, LC: recvLC, Seq: 1, PeerLC: 5}
}

var crash = obs.Event{Kind: obs.KindMgrCrash, Rank: obs.RankRuntime, T: 1, Detail: "mgrrestart"}

// logCases are single JSONL logs: for each -require word and each
// always-on invariant, one log that holds and one that does not. A
// failing log names its violation with why.
var logCases = []struct {
	name    string
	require string
	evs     []obs.Event
	want    int
	why     string
}{
	{"decision", "decision", []obs.Event{decision(1, 0)}, 0, ""},
	{"decision swap verdict", "decision", []obs.Event{{Kind: obs.KindSwapDecision, T: 1, Verdict: "swap", Payback: 3.5, Swaps: 1}}, 0, ""},
	{"decision missing", "decision", []obs.Event{{Kind: obs.KindIterEnd, T: 1, Value: 0.1}}, 1, "no SwapDecision"},
	{"decision without payload", "decision", []obs.Event{{Kind: obs.KindSwapDecision, T: 1, Verdict: "swap"}}, 1, "none carry payback"},

	{"quarantine", "quarantine", []obs.Event{{Kind: obs.KindQuarantine, Rank: 2, T: 1}}, 0, ""},
	{"quarantine missing", "quarantine", []obs.Event{{Kind: obs.KindSwapAbort, T: 1}}, 1, "no Quarantine event"},

	{"circuit", "circuit", []obs.Event{circuit(1, "open"), circuit(1.5, "half-open"), circuit(2, "close")}, 0, ""},
	{"circuit close before first open", "circuit", []obs.Event{circuit(1, "close"), circuit(2, "open")}, 1, "only before it first opened"},
	{"circuit never closes", "circuit", []obs.Event{circuit(1, "open")}, 1, "close=0"},

	{"failover", "failover", []obs.Event{crash, recovery(2, "3"), decision(3, 1)}, 0, ""},
	{"failover recovery with records=0", "failover", []obs.Event{crash, recovery(2, "0"), decision(3, 1)}, 1, "non-empty WAL"},
	{"failover without crash", "failover", []obs.Event{recovery(2, "3"), decision(3, 1)}, 1, "no MgrCrash"},
	{"failover without decision after recovery", "failover", []obs.Event{decision(0.5, 0), crash, recovery(2, "3")}, 1, "never served"},

	{"abort by swap abort", "abort", []obs.Event{{Kind: obs.KindSwapAbort, T: 1}}, 0, ""},
	{"abort by quarantine", "abort", []obs.Event{{Kind: obs.KindQuarantine, Rank: 2, T: 1}}, 0, ""},
	{"abort missing", "abort", []obs.Event{decision(1, 0)}, 1, "no SwapAbort or Quarantine"},

	{"lens", "lens", []obs.Event{decision(1, 0), {Kind: obs.KindShadowDecision, T: 1, Detail: "safe", Reason: "agree"}}, 0, ""},
	{"lens missing", "lens", []obs.Event{decision(1, 0)}, 1, "no ShadowDecision or PaybackRealized"},

	{"several words", "decision, abort", []obs.Event{decision(1, 0), {Kind: obs.KindSwapAbort, T: 2}}, 0, ""},
	{"several words one missing", "decision,abort", []obs.Event{decision(1, 0)}, 1, "-require abort"},

	{"epochs nondecreasing", "", []obs.Event{decision(1, 1), decision(2, 1), decision(3, 2)}, 0, ""},
	{"epoch steps backwards", "", []obs.Event{decision(1, 2), decision(2, 1)}, 1, "decision epoch stepped backwards 2 -> 1"},

	{"recv after send", "", []obs.Event{send(), recv(6)}, 0, ""},
	{"recv before send", "", []obs.Event{send(), recv(3)}, 1, "recv-before-send"},

	{"realization for committed epoch", "", []obs.Event{
		{Kind: obs.KindSwapDecision, T: 1, Verdict: "swap", Payback: 2, Swaps: 1},
		{Kind: obs.KindSwapCommit, T: 1.5, Epoch: 1},
		{Kind: obs.KindPaybackRealized, T: 2, Epoch: 1, Verdict: "ok", Value: 2, Payback: 2.1, Z: 0.05},
	}, 0, ""},
	{"realization for uncommitted epoch", "", []obs.Event{
		decision(1, 0),
		{Kind: obs.KindPaybackRealized, T: 2, Epoch: 5, Verdict: "ok", Value: 2, Payback: 2.1, Z: 0.05},
	}, 1, "never committed"},
}

func writeLog(t *testing.T, path string, evs []obs.Event) {
	t.Helper()
	var b bytes.Buffer
	if err := obs.WriteEventsJSONL(&b, evs); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func runCheck(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String() + errb.String()
}

func TestLogs(t *testing.T) {
	for _, c := range logCases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.jsonl")
			writeLog(t, path, c.evs)
			code, out := runCheck(t, "-require", c.require, path)
			if code != c.want {
				t.Fatalf("exit %d, want %d:\n%s", code, c.want, out)
			}
			if !strings.Contains(out, "trace analysis:") {
				t.Errorf("report lacks the analysis section:\n%s", out)
			}
			if c.want != 0 && (!strings.Contains(out, "VIOLATION: ") || !strings.Contains(out, c.why)) {
				t.Errorf("failing log does not name its violation %q:\n%s", c.why, out)
			}
		})
	}
}

// TestAuditSection: the lens audit joins the report exactly when the
// trace carries lens events.
func TestAuditSection(t *testing.T) {
	dir := t.TempDir()
	plain, lensed := filepath.Join(dir, "plain.jsonl"), filepath.Join(dir, "lensed.jsonl")
	writeLog(t, plain, []obs.Event{decision(1, 0)})
	writeLog(t, lensed, []obs.Event{decision(1, 0), {Kind: obs.KindShadowDecision, T: 1, Detail: "safe", Reason: "agree"}})
	if _, out := runCheck(t, plain); strings.Contains(out, "policy lens audit") {
		t.Errorf("audit section without lens events:\n%s", out)
	}
	if _, out := runCheck(t, lensed); !strings.Contains(out, "policy lens audit") {
		t.Errorf("no audit section for a lensed trace:\n%s", out)
	}
}

// writeDumps writes a flight-dump directory: rank 0 holds the send,
// rank 1 the receive, each file led by the recorder's dump marker.
func writeDumps(t *testing.T, recvLC uint64) string {
	t.Helper()
	dir := t.TempDir()
	marker := func(rank int) obs.Event {
		return obs.Event{Kind: obs.KindRuntimeError, Rank: rank, T: 9, Detail: "flight-dump: swap abort epoch 1"}
	}
	writeLog(t, filepath.Join(dir, "flight-rank0.jsonl"), []obs.Event{marker(0), send(), {Kind: obs.KindSwapAbort, Rank: 0, T: 3}})
	writeLog(t, filepath.Join(dir, "flight-rank1.jsonl"), []obs.Event{marker(1), recv(recvLC)})
	return dir
}

func TestFlightDumps(t *testing.T) {
	code, out := runCheck(t, "-require", "abort", writeDumps(t, 6))
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, out)
	}
	for _, want := range []string{
		`flight-rank0.jsonl: 2 events, flight dump on "swap abort epoch 1"`,
		"== causal cross-rank timeline (3 events) ==",
		"matched_edges=1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "RuntimeError") {
		t.Errorf("dump markers leaked into the report:\n%s", out)
	}
	// The merged timeline is causally ordered: the send precedes its
	// receive on another rank.
	if s, r := strings.Index(out, "MsgSend"), strings.Index(out, "MsgRecv"); s < 0 || r < s {
		t.Errorf("timeline not causally ordered:\n%s", out)
	}

	if code, out := runCheck(t, "-require", "abort", writeDumps(t, 3)); code != 1 || !strings.Contains(out, "recv-before-send") {
		t.Fatalf("recv before its send across dumps: exit %d, want 1 naming it:\n%s", code, out)
	}
}

// TestChromeFile: a Chrome trace is schema-checked only; a broken one
// fails.
func TestChromeFile(t *testing.T) {
	dir := t.TempDir()
	tr := obs.New(1)
	tr.Enable()
	tr.Emit(decision(1, 0))
	var b bytes.Buffer
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	good, bad := filepath.Join(dir, "good.json"), filepath.Join(dir, "bad.json")
	if err := os.WriteFile(good, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte(`[{"name":"x","ph":"i","ts":0,"pid":0}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out := runCheck(t, good); code != 0 || !strings.Contains(out, "schema ok") {
		t.Fatalf("valid Chrome trace: exit %d:\n%s", code, out)
	}
	if code, out := runCheck(t, bad); code != 1 || !strings.Contains(out, "tid") {
		t.Fatalf("Chrome trace missing tid: exit %d, want 1:\n%s", code, out)
	}
}

func TestUsage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	writeLog(t, path, []obs.Event{decision(1, 0)})
	for _, args := range [][]string{
		{"-require", "decision,bogus", path},
		{"-chaos", path},
		{},
	} {
		if code, out := runCheck(t, args...); code != 2 {
			t.Errorf("tracecheck %q: exit %d, want 2:\n%s", args, code, out)
		}
	}
}
