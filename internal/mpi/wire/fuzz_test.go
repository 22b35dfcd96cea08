package wire

import (
	"bytes"
	"io"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the stream decoder: truncated,
// oversized and garbage frames must error (or cleanly EOF), never panic,
// hang or over-allocate. Decoded envelopes must respect the framing
// invariants, and a well-formed prefix must round-trip intact.
func FuzzDecode(f *testing.F) {
	// Seeds: valid binary and causal streams, and adversarial shapes
	// (the retired gob preamble, bad preamble, truncated header, lying
	// length).
	env := Envelope{Comm: 3, Src: 1, Dst: 0, Tag: 7, Data: []byte("seed")}
	f.Add(AppendFrame([]byte{'B'}, &env))
	f.Add(append([]byte{'G'}, AppendFrame(nil, &env)...))
	cenv := env
	cenv.LC, cenv.Seq = 5, 2
	f.Add(AppendCausalFrame([]byte{'C'}, &cenv))
	f.Add([]byte{'Z', 1, 2, 3})
	f.Add([]byte{'B', 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{'B', 0x40, 0x00, 0x00, 0x01}) // MaxPayload+1
	f.Add([]byte{'C', 0x80, 0x00, 0x00, 0x04}) // causal flag, truncated extension
	f.Add([]byte{'B'})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(bytes.NewReader(data))
		var decoded []Envelope
		for i := 0; i < 1<<16; i++ {
			var env Envelope
			err := dec.Decode(&env)
			if err != nil {
				break // EOF or a framing error; both fine
			}
			if len(env.Data) > MaxPayload {
				t.Fatalf("decoded payload %d exceeds MaxPayload", len(env.Data))
			}
			// A decoded frame's bytes all came off the stream, so the
			// total decoded payload can never exceed the input.
			decoded = append(decoded, env)
		}
		var total int
		for _, e := range decoded {
			total += len(e.Data)
		}
		if dec.Codec() == CodecBinary && total > len(data) {
			t.Fatalf("decoded %d payload bytes from a %d-byte input", total, len(data))
		}

		// Round-trip property: re-encode what was decoded from a binary
		// stream and decode it again; the envelopes must survive.
		if dec.Codec() != CodecBinary || len(decoded) == 0 {
			return
		}
		enc := NewEncoder(CodecBinary)
		defer enc.Close()
		for i := range decoded {
			if err := enc.Encode(&decoded[i]); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
		}
		buf := enc.Take()
		defer enc.Recycle(buf)
		redec := NewDecoder(bytes.NewReader(buf))
		for i := range decoded {
			var env Envelope
			if err := redec.Decode(&env); err != nil {
				t.Fatalf("re-decode %d: %v", i, err)
			}
			w := decoded[i]
			if env.Comm != w.Comm || env.Src != w.Src || env.Dst != w.Dst || env.Tag != w.Tag || !bytes.Equal(env.Data, w.Data) {
				t.Fatalf("round trip changed envelope %d: %+v vs %+v", i, env, w)
			}
		}
		var tail Envelope
		if err := redec.Decode(&tail); err != io.EOF {
			t.Fatalf("re-encoded stream has trailing data: %v", err)
		}
	})
}
