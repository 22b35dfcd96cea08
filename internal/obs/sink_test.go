package obs

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// logSink appends "name:kind" for every event to a shared log.
type logSink struct {
	name string
	mu   *sync.Mutex
	log  *[]string
}

func (s logSink) Observe(ev Event) {
	s.mu.Lock()
	*s.log = append(*s.log, fmt.Sprintf("%s:%s", s.name, ev.Kind))
	s.mu.Unlock()
}

// dumpSink records the reasons it was asked to dump with.
type dumpSink struct {
	mu      sync.Mutex
	reasons []string
}

func (s *dumpSink) Observe(Event) {}

func (s *dumpSink) Dump(reason string) error {
	s.mu.Lock()
	s.reasons = append(s.reasons, reason)
	s.mu.Unlock()
	return nil
}

// funcSink adapts a function to EventSink.
type funcSink func(Event)

func (f funcSink) Observe(ev Event) { f(ev) }

// TestSinkFanOutOrder: every attached sink sees every event, in
// attachment order, and buffering stays independent of the sinks.
func TestSinkFanOutOrder(t *testing.T) {
	var mu sync.Mutex
	var log []string
	tr := New(2)
	for _, name := range []string{"a", "b", "c"} {
		tr.AttachSink(logSink{name: name, mu: &mu, log: &log})
	}
	if !tr.Enabled() {
		t.Fatal("tracer with sinks must report Enabled")
	}
	tr.Emit(Event{Kind: KindIterStart, Rank: 0})
	tr.Emit(Event{Kind: KindIterEnd, Rank: 1})
	want := []string{"a:IterStart", "b:IterStart", "c:IterStart", "a:IterEnd", "b:IterEnd", "c:IterEnd"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("delivery order\n got %v\nwant %v", log, want)
	}
	if tr.Len() != 0 {
		t.Fatalf("sink-only tracer buffered %d events", tr.Len())
	}
}

// TestSinkNilSafety: nil tracers, nil sinks and repeated detaches are
// all no-ops.
func TestSinkNilSafety(t *testing.T) {
	var nilTr *Tracer
	nilTr.AttachSink(funcSink(func(Event) {}))()
	nilTr.DumpFlight("ignored")
	nilTr.Observe(Event{Kind: KindIterStart})
	if err := nilTr.Dump("ignored"); err != nil {
		t.Fatal(err)
	}

	tr := New(1)
	tr.AttachSink(nil)()
	if tr.Enabled() {
		t.Fatal("attaching a nil sink enabled the tracer")
	}
	n := 0
	detach := tr.AttachSink(funcSink(func(Event) { n++ }))
	detach()
	detach()
	tr.Emit(Event{Kind: KindIterStart})
	if n != 0 || tr.Enabled() {
		t.Fatalf("detached sink saw %d events, enabled=%v", n, tr.Enabled())
	}
	tr.DumpFlight("no sinks") // must not panic
}

// TestSinkAttachDetachDuringEmit: a sink may detach itself or attach
// another from inside Observe. The event being delivered goes to the
// list as it was when Emit started; the next event sees the change.
func TestSinkAttachDetachDuringEmit(t *testing.T) {
	tr := New(1)
	var self, late int
	var detachSelf func()
	detachSelf = tr.AttachSink(funcSink(func(Event) {
		self++
		detachSelf()
		tr.AttachSink(funcSink(func(Event) { late++ }))
	}))
	tr.Emit(Event{Kind: KindIterStart})
	if self != 1 || late != 0 {
		t.Fatalf("first emit: self=%d late=%d, want 1/0", self, late)
	}
	tr.Emit(Event{Kind: KindIterEnd})
	if self != 1 || late != 1 {
		t.Fatalf("second emit: self=%d late=%d, want 1/1", self, late)
	}

	// The same sink attached twice is two attachments; detaching one
	// leaves the other.
	var twice int
	s := funcSink(func(Event) { twice++ })
	first := tr.AttachSink(s)
	tr.AttachSink(s)
	first()
	tr.Emit(Event{Kind: KindIterStart})
	if twice != 1 {
		t.Fatalf("double attachment after one detach delivered %d times, want 1", twice)
	}
}

// TestSinkConcurrentAttachDetach races emitters against attach/detach
// churn (run under -race): a sink attached for the whole run sees every
// event exactly once, whatever the churn around it.
func TestSinkConcurrentAttachDetach(t *testing.T) {
	tr := New(4)
	var steady atomic.Int64
	tr.AttachSink(funcSink(func(Event) { steady.Add(1) }))
	const emitters, perEmitter = 4, 2000
	var wg sync.WaitGroup
	for r := 0; r < emitters; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perEmitter; i++ {
				tr.Emit(Event{Kind: KindMPISend, Rank: r})
			}
		}(r)
	}
	stop := make(chan struct{})
	churned := make(chan struct{})
	go func() {
		defer close(churned)
		var seen atomic.Int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			tr.AttachSink(funcSink(func(Event) { seen.Add(1) }))()
		}
	}()
	wg.Wait()
	close(stop)
	<-churned
	if got := steady.Load(); got != emitters*perEmitter {
		t.Fatalf("steady sink saw %d events, want %d", got, emitters*perEmitter)
	}
}

// TestDumpFlightReachesEveryDumper: DumpFlight calls Dump on each
// attached sink that implements Dumper, through chained tracers too,
// and skips plain sinks.
func TestDumpFlightReachesEveryDumper(t *testing.T) {
	inner := New(1)
	d1, d2 := &dumpSink{}, &dumpSink{}
	inner.AttachSink(d1)
	outer := New(1)
	outer.AttachSink(funcSink(func(Event) {}))
	outer.AttachSink(d2)
	outer.AttachSink(inner)
	outer.DumpFlight("swap abort")
	for i, d := range []*dumpSink{d1, d2} {
		if !reflect.DeepEqual(d.reasons, []string{"swap abort"}) {
			t.Errorf("dumper %d got %v", i+1, d.reasons)
		}
	}
}
