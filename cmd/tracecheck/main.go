// Command tracecheck reads the event logs of one run and prints one
// report over them. The arguments are JSONL event logs (-events-out),
// flight-recorder dumps (files or a directory of flight-*.jsonl, as
// written on a swap abort, quarantine, rank panic or world close), and
// Chrome trace_event files (-trace-out, *.json), in any mix.
//
// Several logs are merged into one causally ordered timeline
// (obs.SortCausal); a single log keeps obs.ReadJSONL's time order. The
// flight-dump marker events are dump metadata, not run history, and are
// stripped. A Chrome file is only schema-checked: the typed events it
// was exported from are the JSONL log's.
//
// The report is obs.Analyze's deterministic analysis (swap-overhead
// attribution per the payback algebra, per-round critical path and
// imbalance, decision latency quantiles, anomaly windows, causal
// messaging), then policylens.Audit's section when the trace carries
// lens events, then the merged cross-rank timeline when the inputs are
// flight dumps. Three violations always exit 1:
//
//   - a causality violation (recv before its send, a Lamport clock or a
//     rank's swap epoch that steps backwards);
//   - a lens-contract violation (a committed swap never realized, a
//     realization for an uncommitted epoch, an "ok" verdict beyond the
//     tolerance);
//   - a SwapDecision epoch that steps backwards in time order, which a
//     fenced stale manager can never cause.
//
// -require names the evidence a smoke demands, checked on the typed
// events; a missing piece exits 1, an unknown word exits 2:
//
//	decision    a SwapDecision with its payback and verdict payload
//	quarantine  a Quarantine event
//	circuit     a Circuit "open" followed by a "close"
//	failover    an MgrCrash, then an MgrRecover that replayed a non-empty
//	            WAL, then a SwapDecision after that recovery
//	abort       a SwapAbort or Quarantine event
//	lens        a ShadowDecision or PaybackRealized event
//
// Example:
//
//	swaprun -ranks 2 -active 1 -events-out run.jsonl && tracecheck -require decision run.jsonl
//	swaprun -chaos '...' -causal -flight-dir flight && tracecheck -require abort flight
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/obs"
	"repro/internal/swaprt/policylens"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it returns 0 when the trace holds, 1 on a
// violation, missing evidence or unreadable input, and 2 on a usage
// error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracecheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	require := fs.String("require", "", "comma-separated evidence the trace must hold: "+evidenceWords())
	tolerance := fs.Float64("audit-tolerance", 0, "relative payback error the lens audit counts as a misprediction (0 = lens default)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	checks, err := parseRequire(*require)
	if err == nil && fs.NArg() == 0 {
		err = fmt.Errorf("usage: tracecheck [-require word,...] [-audit-tolerance x] <events.jsonl | flight-dir | trace.json>...")
	}
	if err != nil {
		fmt.Fprintln(stderr, "tracecheck:", err)
		return 2
	}

	in, err := load(fs.Args(), stdout)
	if err != nil {
		fmt.Fprintln(stderr, "tracecheck:", err)
		return 1
	}
	var failures []string
	fail := func(format string, a ...any) { failures = append(failures, fmt.Sprintf(format, a...)) }

	evs := in.events
	if in.logs > 0 {
		an := obs.Analyze(evs)
		fmt.Fprintln(stdout)
		if err := an.WriteReport(stdout); err != nil {
			fmt.Fprintln(stderr, "tracecheck:", err)
			return 1
		}
		// Analyze validates causality when the trace carries message
		// edges; without them the per-rank Lamport and epoch checks still
		// apply.
		check, ok := an.Causality()
		if !ok {
			check = obs.CheckCausality(evs)
		}
		for _, v := range check.Violations {
			fail("causality: %s", v)
		}
	}
	if count(evs, obs.KindShadowDecision)+count(evs, obs.KindPaybackRealized) > 0 {
		res := policylens.Audit(evs, policylens.AuditConfig{Tolerance: *tolerance})
		fmt.Fprintln(stdout)
		if err := res.WriteReport(stdout); err != nil {
			fmt.Fprintln(stderr, "tracecheck:", err)
			return 1
		}
		for _, v := range res.Violations {
			fail("lens contract: %s", v)
		}
	}
	if in.dumps > 0 {
		fmt.Fprintf(stdout, "\n== causal cross-rank timeline (%d events) ==\n", len(evs))
		for _, ev := range evs {
			fmt.Fprintln(stdout, formatEvent(ev))
		}
	}

	var epoch uint64 // the previous decision's
	for _, ev := range evs {
		if ev.Kind != obs.KindSwapDecision {
			continue
		}
		if ev.Epoch < epoch {
			fail("decision epoch stepped backwards %d -> %d at t=%.6g: a stale manager escaped the fence",
				epoch, ev.Epoch, ev.T)
		}
		epoch = ev.Epoch
	}

	fmt.Fprintf(stdout, "\n== evidence ==\n")
	for _, c := range checks {
		got, err := c.check(evs)
		if err != nil {
			fail("-require %s: %v", c.word, err)
			continue
		}
		fmt.Fprintf(stdout, "%-10s %s\n", c.word, got)
	}
	for _, f := range failures {
		fmt.Fprintf(stdout, "VIOLATION: %s\n", f)
	}
	if len(failures) > 0 {
		fmt.Fprintf(stderr, "tracecheck: FAIL, %d violation(s); first: %s\n", len(failures), failures[0])
		return 1
	}
	fmt.Fprintf(stdout, "tracecheck: ok, %d events\n", len(evs))
	return 0
}

// input is the typed event stream read from the arguments.
type input struct {
	events []obs.Event
	logs   int // JSONL files read
	dumps  int // of those, flight-recorder dumps
}

// load reads every argument: a directory expands to its *.jsonl files
// (sorted), a *.json file is schema-checked as a Chrome trace, and any
// other file is a JSONL event log. It reports each input on w.
func load(args []string, w io.Writer) (input, error) {
	var in input
	var paths []string
	for _, a := range args {
		st, err := os.Stat(a)
		if err != nil {
			return in, err
		}
		if !st.IsDir() {
			paths = append(paths, a)
			continue
		}
		files, err := filepath.Glob(filepath.Join(a, "*.jsonl"))
		if err != nil {
			return in, err
		}
		if len(files) == 0 {
			return in, fmt.Errorf("no *.jsonl event logs in %s", a)
		}
		paths = append(paths, files...)
	}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return in, err
		}
		if strings.HasSuffix(p, ".json") {
			entries, err := obs.ValidateChromeTrace(f)
			f.Close()
			if err != nil {
				return in, fmt.Errorf("%s: %w", p, err)
			}
			fmt.Fprintf(w, "%s: Chrome trace, %d entries, schema ok\n", p, len(entries))
			continue
		}
		evs, err := obs.ReadJSONL(f)
		f.Close()
		if err != nil {
			return in, fmt.Errorf("%s: %w", p, err)
		}
		in.logs++
		kept, reason := evs[:0], ""
		for _, ev := range evs {
			if ev.Kind == obs.KindRuntimeError && strings.HasPrefix(ev.Detail, "flight-dump: ") {
				reason = strings.TrimPrefix(ev.Detail, "flight-dump: ")
				continue
			}
			kept = append(kept, ev)
		}
		if reason != "" {
			in.dumps++
			fmt.Fprintf(w, "%s: %d events, flight dump on %q\n", p, len(kept), reason)
		} else {
			fmt.Fprintf(w, "%s: %d events\n", p, len(kept))
		}
		in.events = append(in.events, kept...)
	}
	if in.logs > 1 {
		obs.SortCausal(in.events)
	}
	return in, nil
}

// evidenceCheck is one -require word and its check. A check returns a
// one-line account of what it found, or an error naming what is
// missing.
type evidenceCheck struct {
	word  string
	check func([]obs.Event) (string, error)
}

// evidence is the closed -require vocabulary.
var evidence = []evidenceCheck{
	{"decision", requireDecision},
	{"quarantine", requireKinds(obs.KindQuarantine)},
	{"circuit", requireCircuit},
	{"failover", requireFailover},
	{"abort", requireKinds(obs.KindSwapAbort, obs.KindQuarantine)},
	{"lens", requireKinds(obs.KindShadowDecision, obs.KindPaybackRealized)},
}

func evidenceWords() string {
	var words []string
	for _, c := range evidence {
		words = append(words, c.word)
	}
	return strings.Join(words, ", ")
}

// parseRequire resolves a comma-separated -require list; an unknown
// word is a usage error.
func parseRequire(spec string) ([]evidenceCheck, error) {
	var checks []evidenceCheck
	for _, w := range strings.Split(spec, ",") {
		w = strings.TrimSpace(w)
		if w == "" {
			continue
		}
		i := slices.IndexFunc(evidence, func(c evidenceCheck) bool { return c.word == w })
		if i < 0 {
			return nil, fmt.Errorf("-require: unknown word %q (want %s)", w, evidenceWords())
		}
		checks = append(checks, evidence[i])
	}
	return checks, nil
}

// requireDecision demands a SwapDecision carrying the policy's payback
// payload: a verdict plus the payback distance, or a "stay" verdict with
// its reason (the gate may reject before any payback is computed).
func requireDecision(evs []obs.Event) (string, error) {
	decisions, complete := 0, 0
	for _, ev := range evs {
		if ev.Kind != obs.KindSwapDecision {
			continue
		}
		decisions++
		if (ev.Verdict == "stay" && ev.Reason != "") || (ev.Verdict != "" && ev.Payback != 0) {
			complete++
		}
	}
	switch {
	case decisions == 0:
		return "", fmt.Errorf("no SwapDecision events (%d events)", len(evs))
	case complete == 0:
		return "", fmt.Errorf("%d SwapDecision events but none carry payback + verdict", decisions)
	}
	return fmt.Sprintf("%d decisions, %d with full payback payload", decisions, complete), nil
}

// requireCircuit demands that the decision circuit breaker opened and
// later closed again.
func requireCircuit(evs []obs.Event) (string, error) {
	firstOpen, lastClose := math.Inf(1), math.Inf(-1)
	opens, closes := 0, 0
	for _, ev := range evs {
		if ev.Kind != obs.KindCircuit {
			continue
		}
		switch ev.Detail {
		case "open":
			opens++
			firstOpen = math.Min(firstOpen, ev.T)
		case "close":
			closes++
			lastClose = math.Max(lastClose, ev.T)
		}
	}
	switch {
	case opens == 0 || closes == 0:
		return "", fmt.Errorf("circuit transitions open=%d close=%d, want at least one of each", opens, closes)
	case lastClose < firstOpen:
		return "", fmt.Errorf("circuit closed (t=%.6g) only before it first opened (t=%.6g)", lastClose, firstOpen)
	}
	return fmt.Sprintf("circuit opened %d and closed %d times", opens, closes), nil
}

// requireFailover demands a manager crash, a later recovery whose WAL
// replay restored at least one record, and a decision after that
// recovery proving the reborn manager kept serving.
func requireFailover(evs []obs.Event) (string, error) {
	firstCrash, recovered := math.Inf(1), math.Inf(1)
	crashes, recoveries, post := 0, 0, 0
	for _, ev := range evs {
		switch ev.Kind {
		case obs.KindMgrCrash:
			crashes++
			firstCrash = math.Min(firstCrash, ev.T)
		case obs.KindMgrRecover:
			recoveries++
			var records int
			_, err := fmt.Sscanf(ev.Detail, "wal-replay records=%d", &records)
			if err == nil && records > 0 && ev.T >= firstCrash && math.IsInf(recovered, 1) {
				recovered = ev.T
			}
		case obs.KindSwapDecision:
			if ev.T > recovered {
				post++
			}
		}
	}
	switch {
	case crashes == 0:
		return "", fmt.Errorf("no MgrCrash event")
	case math.IsInf(recovered, 1):
		return "", fmt.Errorf("no MgrRecover after the crash replayed a non-empty WAL (%d recoveries)", recoveries)
	case post == 0:
		return "", fmt.Errorf("no SwapDecision after the WAL-replay recovery at t=%.6g: the reborn manager never served", recovered)
	}
	return fmt.Sprintf("%d manager crashes, %d recoveries, %d decisions after the WAL replay", crashes, recoveries, post), nil
}

// requireKinds demands at least one event of any of the given kinds.
func requireKinds(kinds ...obs.Kind) func([]obs.Event) (string, error) {
	return func(evs []obs.Event) (string, error) {
		var found, names []string
		total := 0
		for _, k := range kinds {
			n := count(evs, k)
			total += n
			found = append(found, fmt.Sprintf("%d %s", n, k))
			names = append(names, k.String())
		}
		if total == 0 {
			return "", fmt.Errorf("no %s event", strings.Join(names, " or "))
		}
		return strings.Join(found, ", "), nil
	}
}

// count returns how many events have kind k.
func count(evs []obs.Event, k obs.Kind) int {
	n := 0
	for _, ev := range evs {
		if ev.Kind == k {
			n++
		}
	}
	return n
}

// formatEvent renders one timeline line: timestamp, rank, kind, then
// whichever optional fields the event carries.
func formatEvent(ev obs.Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%14.6f] rank %2d %-13s", ev.T, ev.Rank, ev.Kind.String())
	if ev.Peer != 0 || ev.Kind == obs.KindMsgSend || ev.Kind == obs.KindMsgRecv {
		fmt.Fprintf(&b, " peer=%d", ev.Peer)
	}
	if ev.LC != 0 {
		fmt.Fprintf(&b, " lc=%d seq=%d", ev.LC, ev.Seq)
	}
	if ev.PeerLC != 0 {
		fmt.Fprintf(&b, " peer_lc=%d", ev.PeerLC)
	}
	if ev.Epoch != 0 {
		fmt.Fprintf(&b, " epoch=%d", ev.Epoch)
	}
	if ev.Bytes != 0 {
		fmt.Fprintf(&b, " bytes=%d", ev.Bytes)
	}
	if ev.Detail != "" {
		fmt.Fprintf(&b, " %q", ev.Detail)
	}
	return b.String()
}
