package mpi

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi/wire"
)

// TestTCPMixedCodecMesh proves per-connection codec negotiation: a raw
// causal sender delivers into a binary-codec world and a raw binary
// sender delivers into a causal-codec world, because the receiver picks
// its decoder from each stream's one-byte preamble, not from its own
// configured codec.
func TestTCPMixedCodecMesh(t *testing.T) {
	cases := []struct {
		name     string
		causal   bool // the receiving world's Config.Causal (its codec)
		preamble byte // the foreign sender's stream codec
	}{
		{"causal sender into binary world", false, 'C'},
		{"binary sender into causal world", true, 'B'},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := NewWorldWithConfig(Config{Size: 2, TCP: true, Causal: tc.causal})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			tr := w.transport.(*tcpTransport)
			conn, err := net.Dial("tcp", tr.addrs[1])
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			env := envelope{Comm: worldCommID, Src: 0, Dst: 1, Tag: 5, Data: []byte("cross-codec"), LC: 3, Seq: 1}
			frame := wire.AppendFrame([]byte{'B'}, &env)
			if tc.preamble == 'C' {
				frame = wire.AppendCausalFrame([]byte{'C'}, &env)
			}
			if _, err := conn.Write(frame); err != nil {
				t.Fatal(err)
			}
			got, err := w.boxes[1].popDeadline(w.clk, worldCommID, 0, 5, time.Now().Add(2*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			if string(got.Data) != "cross-codec" || got.Src != 0 || got.Tag != 5 {
				t.Fatalf("got %+v", got)
			}
		})
	}
}

// TestTCPFirstSendLatencyExcludesDial is the satellite-1 regression: the
// lazy first-send dial — here forced through a refused attempt plus a
// 10ms retry backoff — must land in "mpi.tcp.dial_latency_s", never in
// "mpi.tcp.send_latency_s". Under the old accounting the ~10ms dial was
// charged to the send histogram (range 0–10ms), pinning a first send
// into the top bin or overflow and corrupting the p99 the anomaly
// detector replays; a healthy-loopback write must stay in the bottom
// bins.
func TestTCPFirstSendLatencyExcludesDial(t *testing.T) {
	w, err := NewTCPWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	tr := w.transport.(*tcpTransport)
	sendHist := w.Metrics().Histogram("mpi.tcp.send_latency_s", 0, 0.010, 50)
	dialHist := w.Metrics().Histogram("mpi.tcp.dial_latency_s", 0, 10.0, 50)

	// Reserve a port, then close it: the first dial attempt is refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	_ = ln.Close()
	tr.addrs[1] = deadAddr

	w.SetSendLatencySampling(true)
	sendErr := make(chan error, 1)
	go func() {
		sendErr <- tr.send(envelope{Comm: worldCommID, Src: 0, Dst: 1, Tag: 1, Data: []byte("x")})
	}()

	// Once the first attempt has failed (retry counter moves before the
	// backoff sleep), rebind the listener so the retry succeeds: a slow
	// dial that ultimately works, the exact shape of the old bug.
	deadline := time.Now().Add(5 * time.Second)
	for tr.dialRetry.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first dial attempt never failed")
		}
		time.Sleep(time.Millisecond)
	}
	ln, err = net.Listen("tcp", deadAddr)
	if err != nil {
		t.Fatalf("rebind %s: %v", deadAddr, err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		_, _ = io.Copy(io.Discard, conn)
	}()
	if err := <-sendErr; err != nil {
		t.Fatalf("send through retried dial: %v", err)
	}

	// The flusher samples the write after it returns; poll briefly.
	var snap = sendHist.Snapshot()
	for wait := 0; wait < 500 && snap.N() == 0; wait++ {
		time.Sleep(time.Millisecond)
		snap = sendHist.Snapshot()
	}
	if snap.N() == 0 {
		t.Fatal("no send-latency sample recorded")
	}
	if snap.Over != 0 || snap.Counts[len(snap.Counts)-1] != 0 {
		t.Fatalf("first send charged dial time to send_latency_s: top bin %d, over %d",
			snap.Counts[len(snap.Counts)-1], snap.Over)
	}
	dsnap := dialHist.Snapshot()
	if dsnap.N() == 0 {
		t.Fatal("dial not recorded in dial_latency_s")
	}
}

// TestTCPCloseUnblocksDialRetryStorm is the satellite-2 regression: with
// every sender to a dead rank stuck in dial retries, the senders must
// fail out concurrently — the old code held the per-destination lock
// across the dial backoff schedule, so 32 queued senders drained one
// full schedule at a time (~seconds) even after close().
func TestTCPCloseUnblocksDialRetryStorm(t *testing.T) {
	w, err := NewTCPWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	tr := w.transport.(*tcpTransport)

	// Point rank 1 at a dead port: every dial attempt is refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	_ = ln.Close()
	tr.addrs[1] = deadAddr

	const senders = 32
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, senders)
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = tr.send(envelope{Comm: worldCommID, Src: 0, Dst: 1, Tag: 1})
		}(i)
	}

	// Close mid-storm: senders sleeping in dial backoff must observe it.
	deadline := time.Now().Add(5 * time.Second)
	for tr.dialRetry.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no dial retry observed")
		}
		time.Sleep(time.Millisecond)
	}
	w.Close()
	wg.Wait()
	elapsed := time.Since(start)

	for i, err := range errs {
		if err == nil {
			t.Fatalf("sender %d succeeded against a dead rank", i)
		}
	}
	// Serialized behavior: 32 senders x (two backoff sleeps + refused
	// dials) ≈ a second or more. Concurrent dials with closed() checks
	// finish in one schedule.
	if elapsed > 800*time.Millisecond {
		t.Fatalf("retry storm drained serially: %v for %d senders", elapsed, senders)
	}
}

// TestTCPFaultInjectionOverBothCodecs pins the chaos layer's
// codec-independence: verdicts are applied above the transport, so drop
// and error rules behave identically over binary and causal framing.
func TestTCPFaultInjectionOverBothCodecs(t *testing.T) {
	for _, causal := range []bool{false, true} {
		codec := wire.CodecBinary
		if causal {
			codec = wire.CodecCausal
		}
		t.Run(codec.String(), func(t *testing.T) {
			inj := &stubInjector{verdicts: map[[2]int]FaultVerdict{
				{0, 1}: {Drop: true, Detail: "eat 0->1"},
				{1, 0}: {Err: errors.New("refused"), Detail: "fail 1->0"},
			}}
			w, err := NewWorldWithConfig(Config{Size: 3, TCP: true, Causal: causal, Fault: inj})
			if err != nil {
				t.Fatal(err)
			}
			err = w.Run(func(r *Rank) error {
				c := r.World()
				switch r.Rank() {
				case 0:
					// Dropped: sender sees success, receiver nothing.
					if err := c.Send(1, 1, []byte("lost")); err != nil {
						return err
					}
					// Unfaulted pair still delivers.
					return c.Send(2, 2, []byte("kept"))
				case 1:
					if _, _, err := c.RecvTimeout(0, 1, 50*time.Millisecond); !errors.Is(err, ErrRecvTimeout) {
						return fmt.Errorf("dropped message delivered: %v", err)
					}
					// Injected error: sender observes the fault.
					if err := c.Send(0, 3, []byte("x")); err == nil {
						return errors.New("faulted send succeeded")
					}
					return nil
				default:
					data, _, err := c.Recv(0, 2)
					if err != nil {
						return err
					}
					if string(data) != "kept" {
						return fmt.Errorf("got %q", data)
					}
					return nil
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := w.Metrics().Counter("mpi.fault.drops").Load(); got != 1 {
				t.Errorf("drops = %d, want 1", got)
			}
			if got := w.Metrics().Counter("mpi.fault.errors").Load(); got != 1 {
				t.Errorf("errors = %d, want 1", got)
			}
		})
	}
}
