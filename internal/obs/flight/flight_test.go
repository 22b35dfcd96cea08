package flight

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestRingWrap pins the bounded-window contract: a ring holding n events
// keeps exactly the most recent n, snapshotted oldest-first.
func TestRingWrap(t *testing.T) {
	r := New(1, Config{Dir: t.TempDir(), Events: 4})
	for i := 1; i <= 10; i++ {
		r.Observe(obs.Event{Kind: obs.KindIterStart, Rank: 0, T: float64(i)})
	}
	evs := r.ranks[0].snapshot()
	if len(evs) != 4 {
		t.Fatalf("snapshot holds %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := float64(7 + i); ev.T != want {
			t.Fatalf("snapshot[%d].T = %g, want %g (oldest-first window)", i, ev.T, want)
		}
	}
	st := r.Status()
	if st.Buffered != 4 || st.Observed != 10 {
		t.Fatalf("status = %+v, want buffered 4, observed 10", st)
	}
}

// TestRecorderDumpRoundTrip pins the dump format: one JSONL file per
// rank plus the runtime file, each led by a marker carrying the reason,
// every file parseable by obs.ReadJSONL with the buffered events intact.
func TestRecorderDumpRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := New(2, Config{Dir: dir, Events: 8, Clock: func() float64 { return 42 }})
	r.Observe(obs.Event{Kind: obs.KindIterStart, Rank: 0, T: 1})
	r.Observe(obs.Event{Kind: obs.KindMsgSend, Rank: 0, T: 2, Peer: 1, LC: 3, Seq: 1})
	r.Observe(obs.Event{Kind: obs.KindMsgRecv, Rank: 1, T: 2.1, Peer: 0, LC: 4, Seq: 1, PeerLC: 3})
	r.Observe(obs.Event{Kind: obs.KindSwapDecision, Rank: obs.RankRuntime, T: 3})

	if err := r.Dump("swap abort: test"); err != nil {
		t.Fatal(err)
	}

	read := func(name string) []obs.Event {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		evs, err := obs.ReadJSONL(f)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return evs
	}

	// ReadJSONL time-sorts, so locate the marker rather than relying on
	// its on-disk position (it leads the file but carries the dump time).
	findMarker := func(evs []obs.Event) *obs.Event {
		for i := range evs {
			if evs[i].Kind == obs.KindRuntimeError &&
				strings.HasPrefix(evs[i].Detail, "flight-dump: ") {
				return &evs[i]
			}
		}
		return nil
	}
	for rank := 0; rank < 2; rank++ {
		evs := read(fmt.Sprintf("flight-rank%d.jsonl", rank))
		marker := findMarker(evs)
		if marker == nil || marker.T != 42 ||
			!strings.HasPrefix(marker.Detail, "flight-dump: swap abort: test") {
			t.Fatalf("rank %d marker missing or malformed: %+v", rank, evs)
		}
	}
	r0 := read("flight-rank0.jsonl")
	if len(r0) != 3 { // marker + 2 events
		t.Fatalf("rank 0 dump holds %d events, want 3", len(r0))
	}
	var sawCausal bool
	for _, ev := range r0 {
		if ev.Kind == obs.KindMsgSend && ev.LC == 3 && ev.Seq == 1 {
			sawCausal = true
		}
	}
	if !sawCausal {
		t.Fatalf("causal fields lost in dump: %+v", r0)
	}
	rt := read("flight-runtime.jsonl")
	if len(rt) != 2 || (rt[0].Kind != obs.KindSwapDecision && rt[1].Kind != obs.KindSwapDecision) {
		t.Fatalf("runtime dump malformed: %+v", rt)
	}

	// A second dump overwrites (rings are cumulative).
	r.Observe(obs.Event{Kind: obs.KindIterEnd, Rank: 0, T: 5})
	if err := r.Dump("world close"); err != nil {
		t.Fatal(err)
	}
	r0 = read("flight-rank0.jsonl")
	marker := findMarker(r0)
	if len(r0) != 4 || marker == nil || !strings.Contains(marker.Detail, "world close") {
		t.Fatalf("second dump did not overwrite: %+v", r0)
	}
	st := r.Status()
	if st.Dumps != 2 || st.LastDump != "world close" {
		t.Fatalf("status after dumps = %+v", st)
	}
}

// TestRecorderDisable pins the atomic gate: a disabled recorder drops
// events, an out-of-range rank routes to the runtime ring.
func TestRecorderDisable(t *testing.T) {
	r := New(1, Config{Dir: t.TempDir()})
	r.Disable()
	r.Observe(obs.Event{Kind: obs.KindIterStart, Rank: 0, T: 1})
	if st := r.Status(); st.Observed != 0 {
		t.Fatalf("disabled recorder observed %d events", st.Observed)
	}
	r.Enable()
	r.Observe(obs.Event{Kind: obs.KindIterStart, Rank: 99, T: 1})
	if n := len(r.runtime.snapshot()); n != 1 {
		t.Fatalf("out-of-range rank not routed to runtime ring (%d events)", n)
	}
}

// TestTracerSinkIntegration pins the obs seam end to end: attaching a
// recorder makes an otherwise-disabled tracer's Enabled() true, events
// emitted flow into the rings without trace buffering, and
// Tracer.DumpFlight triggers the dump.
func TestTracerSinkIntegration(t *testing.T) {
	dir := t.TempDir()
	rec := New(2, Config{Dir: dir, Events: 8})
	tr := obs.New(2)
	if tr.Enabled() {
		t.Fatal("tracer enabled before sink attach")
	}
	detach := tr.AttachSink(rec)
	if !tr.Enabled() {
		t.Fatal("sink-only tracer must report Enabled so emit sites construct events")
	}
	tr.Emit(obs.Event{Kind: obs.KindIterStart, Rank: 1, T: 1})
	if tr.Len() != 0 {
		t.Fatalf("sink-only tracer buffered %d events; buffering must need Enable()", tr.Len())
	}
	if st := rec.Status(); st.Observed != 1 {
		t.Fatalf("sink observed %d events, want 1", st.Observed)
	}
	tr.DumpFlight("rank 0 panicked: boom")
	data, err := os.ReadFile(filepath.Join(dir, "flight-rank1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "rank 0 panicked: boom") {
		t.Fatalf("dump missing reason: %s", data)
	}
	// Detach: Enabled drops back, DumpFlight becomes a no-op.
	detach()
	if tr.Enabled() {
		t.Fatal("tracer still enabled after sink detach")
	}
	tr.DumpFlight("ignored") // no sink: must be a safe no-op
	var nilTr *obs.Tracer
	nilTr.DumpFlight("ignored") // nil tracer: must be a safe no-op
}
