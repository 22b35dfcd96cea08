package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestParseValidation pins the usage errors: bad sizes and the flag
// combinations a multi-scenario sweep cannot honour are rejected before
// any world is built, instead of panicking inside the runtime.
func TestParseValidation(t *testing.T) {
	sweep := []string{"-scenarios", "3", "-iters", "30", "-work", "1"}
	cases := []struct {
		name    string
		args    []string
		wantErr string // "" = valid
	}{
		{"defaults", nil, ""},
		{"more active than ranks", []string{"-ranks", "2", "-active", "3"}, "-active"},
		{"no ranks", []string{"-ranks", "0"}, "-ranks"},
		{"no actives", []string{"-active", "0"}, "-active"},
		{"negative iters", []string{"-iters", "-1"}, "-iters"},
		{"negative state", []string{"-state", "-1"}, "-state"},
		{"zero scenarios", []string{"-scenarios", "0"}, "-scenarios"},
		{"zero accel", []string{"-accel", "0"}, "-accel"},
		{"unknown policy", []string{"-policy", "nope"}, "nope"},
		{"bad chaos plan", []string{"-chaos", "explode:now"}, "explode"},
		{"injection outside world", []string{"-ranks", "2", "-inject", "5@0.1:2"}, "out of world"},
		{"single run keeps output flags", []string{"-trace-out", "t.json", "-debug-addr", "127.0.0.1:0", "-manager", "127.0.0.1:1"}, ""},
		{"sweep", sweep, ""},
		{"sweep shortest run", []string{"-scenarios", "2", "-iters", "2", "-work", "0.5"}, ""},
		{"sweep ignores the default schedule", []string{"-scenarios", "2", "-ranks", "1", "-active", "1", "-work", "1"}, ""},
		{"sweep trace-out", append(sweep, "-trace-out", "t.json"), "-trace-out"},
		{"sweep events-out", append(sweep, "-events-out", "e.jsonl"), "-events-out"},
		{"sweep metrics-out", append(sweep, "-metrics-out", "m.txt"), "-metrics-out"},
		{"sweep flight-dir", append(sweep, "-flight-dir", "flight"), "-flight-dir"},
		{"sweep debug-addr", append(sweep, "-debug-addr", "127.0.0.1:0"), "-debug-addr"},
		{"sweep manager", append(sweep, "-manager", "127.0.0.1:1"), "-manager"},
		{"sweep mgr-store", append(sweep, "-mgr-store", "store"), "-mgr-store"},
		{"sweep explicit inject", append(sweep, "-inject", "0@0.1:2"), "-inject"},
		{"sweep explicit empty inject", append(sweep, "-inject", ""), "-inject"},
		{"sweep without work", []string{"-scenarios", "3", "-work", "0"}, "-work"},
		{"sweep too few iters", []string{"-scenarios", "3", "-iters", "1"}, "-iters"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := parse(c.args)
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("parse(%q) = %v, want ok", c.args, err)
			case c.wantErr != "" && err == nil:
				t.Fatalf("parse(%q) accepted, want an error naming %s", c.args, c.wantErr)
			case c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr):
				t.Fatalf("parse(%q) = %v, want it to name %s", c.args, err, c.wantErr)
			}
		})
	}
}

func TestParseInjections(t *testing.T) {
	got, err := parseInjections("0@0.05:8,1@0:4")
	if err != nil {
		t.Fatal(err)
	}
	want := []injection{{Rank: 0, Delay: 50 * time.Millisecond, Factor: 8}, {Rank: 1, Factor: 4}}
	if len(got) != len(want) {
		t.Fatalf("parseInjections = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("injection %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if got, err := parseInjections(""); err != nil || got != nil {
		t.Fatalf("empty schedule = %+v, %v; want none", got, err)
	}
	for _, spec := range []string{
		"garbage", "1@0.3", "1:0.3@8", "x@0.3:8", "1@y:8", "1@0.3:z", "1@0.3:8:2", "0@0.1:2,",
		"1@0.3:0.5", // factor < 1 would speed the host up
	} {
		if _, err := parseInjections(spec); err == nil {
			t.Errorf("parseInjections(%q) accepted", spec)
		}
	}
}

// TestScenarioRotation pins the sweep's load rotation: scenario i slows
// active rank i mod active once the leader has finished
// iters/4 + (7i mod iters/2) iterations.
func TestScenarioRotation(t *testing.T) {
	o := &options{iters: 30, active: 2}
	want := []injection{
		{Rank: 0, AfterIter: 7, Factor: 10},
		{Rank: 1, AfterIter: 14, Factor: 10},
		{Rank: 0, AfterIter: 21, Factor: 10},
		{Rank: 1, AfterIter: 13, Factor: 10},
		{Rank: 0, AfterIter: 20, Factor: 10},
		{Rank: 1, AfterIter: 12, Factor: 10},
	}
	for i, w := range want {
		if got := scenarioLoad(i, o); got != w {
			t.Errorf("scenario %d load = %+v, want %+v", i, got, w)
		}
	}
}

// TestOracleReportsNonLeaderLane: the whole-run oracle checks every
// active lane, so corruption carried by a non-leader rank fails the run.
func TestOracleReportsNonLeaderLane(t *testing.T) {
	orc := &oracle{want: 60}
	if err := orc.check(0, 60); err != nil {
		t.Fatalf("exact leader lane flagged: %v", err)
	}
	if err := orc.check(3, 59); err == nil {
		t.Fatal("corrupt non-leader lane passed")
	}
	err := orc.bad
	if err == nil || !strings.Contains(err.Error(), "rank 3") {
		t.Fatalf("oracle verdict = %v, want the corrupt rank 3", err)
	}
	if strings.Contains(err.Error(), "rank 0") {
		t.Fatalf("oracle verdict %v blames the exact leader lane", err)
	}
}

// TestSweepInProcess runs a short accelerated sweep end to end: every
// scenario swaps the slowed rank out and finishes exact.
func TestSweepInProcess(t *testing.T) {
	o, err := parse([]string{"-scenarios", "3", "-iters", "30", "-work", "1", "-accel", "50", "-lens"})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := sweep(o, &out); err != nil {
		t.Fatalf("sweep: %v\n%s", err, out.String())
	}
	for _, want := range []string{"3 ok, 0 failed", "sweep lens:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("sweep output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestSweepFailedScenario: an active rank that dies mid-run fails its
// scenario with an error instead of hanging its peers, and the sweep
// reports the failure.
func TestSweepFailedScenario(t *testing.T) {
	o, err := parse([]string{"-scenarios", "2", "-iters", "30", "-work", "1", "-accel", "50", "-chaos", "die:rank=0,iter=5"})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = sweep(o, &out)
	if err == nil || !strings.Contains(err.Error(), "2/2 scenarios failed") {
		t.Fatalf("sweep = %v, want 2/2 scenarios failed\n%s", err, out.String())
	}
	if n := strings.Count(out.String(), "\nscenario "); n != 2 {
		t.Fatalf("want one line per failed scenario, got %d:\n%s", n, out.String())
	}
}

// TestAcceleratedTraceClock: an accelerated run's trace is stamped on the
// same virtual clock that times its iterations, so the trace span covers
// every rank's summed IterEnd values instead of the 1/accel wall time the
// run took.
func TestAcceleratedTraceClock(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	o, err := parse([]string{"-ranks", "2", "-active", "1", "-iters", "20", "-work", "20",
		"-inject", "", "-accel", "25", "-events-out", path})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(o, o.injections, t.Logf); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	span := 0.0
	iters := map[int]float64{}
	for _, ev := range evs {
		span = max(span, ev.T+ev.Dur)
		if ev.Kind == obs.KindIterEnd {
			iters[ev.Rank] += ev.Value
		}
	}
	if len(iters) == 0 {
		t.Fatal("trace has no IterEnd events")
	}
	for rank, sum := range iters {
		if span < sum {
			t.Errorf("trace span %.4gs is shorter than rank %d's summed iterations %.4gs: the trace runs on another clock", span, rank, sum)
		}
	}
}
