// Package wire is the TCP transport's framing layer: a hand-rolled,
// allocation-free binary encoding of the one fixed message shape the
// mesh carries (Envelope).
//
// Stream layout: one preamble byte declaring the sender's codec
// ('B' binary, 'C' binary+causal), then back-to-back frames in that
// codec for the connection's lifetime. The receiver negotiates by
// reading the preamble, so a mesh may mix causal and plain-binary
// senders talking to the same decoder.
//
// Binary frame (big-endian, 24-byte header):
//
//	[0:4]   uint32  payload length n (<= MaxPayload)
//	[4:12]  uint64  Comm
//	[12:16] uint32  Src  (two's-complement int32)
//	[16:20] uint32  Dst  (two's-complement int32)
//	[20:24] uint32  Tag  (two's-complement int32)
//	[24:24+n]       payload
//
// Causal extension ('C' streams only): MaxPayload leaves the top bit of
// the length word unused, so a frame carrying causal context sets bit 31
// of [0:4] and inserts 16 extension bytes between header and payload:
//
//	[24:32] uint64  LC   (sender's Lamport clock)
//	[32:40] uint64  Seq  (sender's send sequence)
//
// Frames with LC == 0 are written without the flag even on 'C' streams,
// and a 'B' decoder treats a flagged length as oversized and errors
// cleanly instead of desynchronizing — old peers never misparse causal
// bytes as payload.
//
// The Encoder serializes into an in-memory pending buffer that the
// connection's single writer swaps out (Take) and returns (Recycle), so
// the steady-state send path performs zero heap allocations: buffers
// come from a sync.Pool and are double-buffered per connection. The
// Decoder hands small payloads out of a shared slab (capacity-clipped,
// so an appending receiver cannot scribble on a neighbor's bytes) and
// reads oversized payloads incrementally, so a lying length header can
// never force a large allocation before the bytes actually arrive.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Envelope is one message in flight between two ranks. Src and Dst are
// world ranks; Comm scopes matching to a communicator.
type Envelope struct {
	Comm uint64
	Src  int
	Dst  int
	Tag  int
	Data []byte

	// Causal piggyback (Lamport clock + send sequence of Src). Zero
	// means "no causal data": Lamport clocks start at 1, so LC == 0 is
	// the presence flag. Only 'C' streams ship these.
	LC  uint64
	Seq uint64
}

// Codec identifies a stream's encoding; its value is the one-byte
// stream preamble the sender writes before the first frame.
type Codec byte

const (
	// CodecBinary is the length-prefixed binary framing (the default).
	CodecBinary Codec = 'B'
	// CodecCausal is the binary framing plus the optional per-frame
	// causal extension (Lamport clock + send sequence).
	CodecCausal Codec = 'C'
)

// Valid reports whether c names a known codec.
func (c Codec) Valid() bool { return c == CodecBinary || c == CodecCausal }

func (c Codec) String() string {
	switch c {
	case CodecBinary:
		return "binary"
	case CodecCausal:
		return "binary+causal"
	}
	return fmt.Sprintf("codec(0x%02x)", byte(c))
}

const (
	// headerLen is the fixed binary frame header size.
	headerLen = 24
	// MaxPayload bounds one frame's payload (1 GiB, the top of the
	// paper's process-size range), so a corrupt length field errors
	// instead of triggering an absurd allocation. It also reserves the
	// high bits of the length word; bit 31 is the causal-extension flag.
	MaxPayload = 1 << 30
	// causalFlag marks a frame that carries the 16-byte causal
	// extension after the fixed header ('C' streams only).
	causalFlag = 1 << 31
	// causalExtLen is the causal extension size: uint64 LC + uint64 Seq.
	causalExtLen = 16
)

// AppendFrame appends env's binary frame to dst and returns the
// extended slice, dropping any causal piggyback (the 'B' framing has no
// room for it). It performs no allocation beyond growing dst.
func AppendFrame(dst []byte, env *Envelope) []byte {
	var hdr [headerLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(env.Data)))
	binary.BigEndian.PutUint64(hdr[4:12], env.Comm)
	binary.BigEndian.PutUint32(hdr[12:16], uint32(int32(env.Src)))
	binary.BigEndian.PutUint32(hdr[16:20], uint32(int32(env.Dst)))
	binary.BigEndian.PutUint32(hdr[20:24], uint32(int32(env.Tag)))
	dst = append(dst, hdr[:]...)
	return append(dst, env.Data...)
}

// AppendCausalFrame appends env's frame in the 'C' framing: identical
// to AppendFrame when env carries no causal data, else the length word
// gains the flag bit and the 16 extension bytes follow the header.
// Allocation-free beyond growing dst.
func AppendCausalFrame(dst []byte, env *Envelope) []byte {
	if env.LC == 0 {
		return AppendFrame(dst, env)
	}
	var hdr [headerLen + causalExtLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(env.Data))|causalFlag)
	binary.BigEndian.PutUint64(hdr[4:12], env.Comm)
	binary.BigEndian.PutUint32(hdr[12:16], uint32(int32(env.Src)))
	binary.BigEndian.PutUint32(hdr[16:20], uint32(int32(env.Dst)))
	binary.BigEndian.PutUint32(hdr[20:24], uint32(int32(env.Tag)))
	binary.BigEndian.PutUint64(hdr[24:32], env.LC)
	binary.BigEndian.PutUint64(hdr[32:40], env.Seq)
	dst = append(dst, hdr[:]...)
	return append(dst, env.Data...)
}

// Encoder buffer pool. Buffers above maxPooledCap (a connection that
// carried a huge state transfer) are dropped for the GC instead of
// pinning their capacity in the pool.
const (
	initialBufCap = 4 << 10
	maxPooledCap  = 1 << 20
)

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, initialBufCap)
	return &b
}}

func getBuf() []byte {
	bp := bufPool.Get().(*[]byte)
	return (*bp)[:0]
}

func putBuf(b []byte) {
	if b == nil || cap(b) > maxPooledCap {
		return
	}
	b = b[:0]
	bufPool.Put(&b)
}

// Encoder serializes envelopes into a pending in-memory buffer for a
// single writer to flush. It is not safe for concurrent use; the TCP
// transport guards each connection's encoder with that connection's
// lock. The first byte ever buffered is the codec preamble.
type Encoder struct {
	codec Codec
	pend  []byte // frames waiting to be flushed (starts with the preamble)
	spare []byte // recycled flush buffer, reused by the next Take
}

// NewEncoder returns an encoder for the given codec with the stream
// preamble already buffered. The pending buffer comes from a pool;
// return it with Close when the connection dies.
func NewEncoder(codec Codec) *Encoder {
	e := &Encoder{codec: codec, pend: getBuf()}
	e.pend = append(e.pend, byte(codec))
	return e
}

// Encode appends env's encoding to the pending buffer. It allocates
// nothing beyond (amortized) buffer growth.
func (e *Encoder) Encode(env *Envelope) error {
	if len(env.Data) > MaxPayload {
		return fmt.Errorf("wire: payload %d bytes exceeds MaxPayload %d", len(env.Data), MaxPayload)
	}
	if e.codec == CodecCausal {
		e.pend = AppendCausalFrame(e.pend, env)
		return nil
	}
	e.pend = AppendFrame(e.pend, env)
	return nil
}

// PendingLen reports the bytes currently buffered.
func (e *Encoder) PendingLen() int { return len(e.pend) }

// Take hands the pending buffer to the flusher and resets the encoder
// to the recycled spare (or a pooled buffer), so encoding continues
// while the taken bytes are being written.
func (e *Encoder) Take() []byte {
	out := e.pend
	if e.spare != nil {
		e.pend = e.spare[:0]
		e.spare = nil
	} else {
		e.pend = getBuf()
	}
	return out
}

// Recycle returns a flushed buffer for reuse by the next Take.
// Oversized buffers are dropped so one huge state transfer does not pin
// its capacity on the connection forever.
func (e *Encoder) Recycle(buf []byte) {
	if cap(buf) > maxPooledCap {
		return
	}
	if e.spare == nil {
		e.spare = buf[:0]
	} else {
		putBuf(buf)
	}
}

// Close returns the encoder's buffers to the pool. The encoder must not
// be used afterwards.
func (e *Encoder) Close() {
	putBuf(e.pend)
	putBuf(e.spare)
	e.pend, e.spare = nil, nil
}

// Decoder reads one sender's stream, negotiating the codec from the
// preamble byte on the first Decode. It is not safe for concurrent use.
type Decoder struct {
	br      *bufio.Reader
	codec   Codec
	started bool

	slab []byte // arena for small payloads: one allocation serves many frames
	hdr  [headerLen]byte
	ext  [causalExtLen]byte // a field: as a local, io.ReadFull moves it to the heap
}

const (
	// decoderBufSize is the read-ahead buffer; large enough that a
	// batch of small frames costs one Read syscall.
	decoderBufSize = 64 << 10
	// slabSize / slabMax: payloads up to slabMax are carved out of a
	// shared slabSize arena, so steady-state small-message receive
	// allocates once per ~thousands of frames instead of once each.
	slabSize = 32 << 10
	slabMax  = 2 << 10
	// readStep bounds each incremental allocation for large payloads.
	readStep = 1 << 20
)

// NewDecoder returns a decoder reading r (typically a net.Conn). The
// caller owns connection deadlines; the decoder only reads.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{br: bufio.NewReaderSize(r, decoderBufSize)}
}

// Codec reports the negotiated codec; zero until the first Decode.
func (d *Decoder) Codec() Codec { return d.codec }

// Decode reads the next envelope into env. It returns io.EOF on a
// clean stream end at a frame boundary and io.ErrUnexpectedEOF on a
// truncated frame; it never panics and never allocates more than the
// bytes that actually arrived (plus one bounded step).
func (d *Decoder) Decode(env *Envelope) error {
	if !d.started {
		b, err := d.br.ReadByte()
		if err != nil {
			return err
		}
		c := Codec(b)
		if !c.Valid() {
			return fmt.Errorf("wire: unknown codec preamble 0x%02x (want 'B' or 'C')", b)
		}
		d.codec = c
		d.started = true
	}
	if _, err := io.ReadFull(d.br, d.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return fmt.Errorf("wire: truncated frame header: %w", err)
		}
		return err // clean EOF at a frame boundary stays io.EOF
	}
	n := binary.BigEndian.Uint32(d.hdr[0:4])
	causal := false
	if d.codec == CodecCausal && n&causalFlag != 0 {
		causal = true
		n &^= causalFlag
	}
	// On a 'B' stream a flagged length still lands here and fails the
	// bound check: an old-peer decoder errors cleanly rather than
	// misreading the causal extension as payload.
	if n > MaxPayload {
		return fmt.Errorf("wire: frame payload %d bytes exceeds MaxPayload %d", n, MaxPayload)
	}
	env.Comm = binary.BigEndian.Uint64(d.hdr[4:12])
	env.Src = int(int32(binary.BigEndian.Uint32(d.hdr[12:16])))
	env.Dst = int(int32(binary.BigEndian.Uint32(d.hdr[16:20])))
	env.Tag = int(int32(binary.BigEndian.Uint32(d.hdr[20:24])))
	env.LC, env.Seq = 0, 0
	if causal {
		if _, err := io.ReadFull(d.br, d.ext[:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("wire: truncated causal extension: %w", err)
		}
		env.LC = binary.BigEndian.Uint64(d.ext[0:8])
		env.Seq = binary.BigEndian.Uint64(d.ext[8:16])
	}
	if n == 0 {
		env.Data = nil
		return nil
	}
	data, err := d.readPayload(int(n))
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("wire: truncated frame payload (%d bytes): %w", n, err)
	}
	env.Data = data
	return nil
}

// readPayload returns exactly n payload bytes. Small payloads are
// carved from the slab with their capacity clipped (a receiver that
// appends to its message forces a copy instead of corrupting the next
// message); large ones grow incrementally so a lying header cannot
// force a huge up-front allocation.
func (d *Decoder) readPayload(n int) ([]byte, error) {
	if n <= slabMax {
		if cap(d.slab)-len(d.slab) < n {
			d.slab = make([]byte, 0, slabSize)
		}
		off := len(d.slab)
		buf := d.slab[off : off+n : off+n]
		d.slab = d.slab[:off+n]
		if _, err := io.ReadFull(d.br, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	buf := make([]byte, 0, min(n, readStep))
	for len(buf) < n {
		step := min(n-len(buf), readStep)
		if cap(buf)-len(buf) < step {
			grown := make([]byte, len(buf), min(n, 2*cap(buf)))
			copy(grown, buf)
			buf = grown
		}
		off := len(buf)
		buf = buf[:off+step]
		if _, err := io.ReadFull(d.br, buf[off:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}
