package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Wire framing, in the style of the engine's PPCK checkpoint container: a
// frame on the wire is
//
//	u32 LE body length | body | u32 LE CRC32C(body)
//
// and the body is
//
//	type byte | uvarint step | uvarint src | uvarint dst
//	| uvarint payload length | payload
//
// The CRC (Castagnoli polynomial, same table as the checkpoint container) makes a torn
// or bit-flipped frame a detected error — ErrFrameCorrupt — instead of
// garbage handed to the lane decoder. Every decode failure wraps
// ErrFrameCorrupt, mirroring the ErrCheckpointCorrupt taxonomy.

// Frame types of the coordinator/worker protocol.
const (
	// FrameHello opens a coordinator connection: payload carries protocol
	// version, the worker index the coordinator believes it dialed, and
	// the worker count. The worker resets its lane depot (a new
	// coordinator session supersedes any previous one) and answers
	// FrameHelloAck, or FrameError on a mismatch.
	FrameHello byte = 1
	// FrameHelloAck acknowledges a FrameHello.
	FrameHelloAck byte = 2
	// FrameLane stores one encoded lane (step, src, dst, payload) in the
	// worker's depot, overwriting any previous lane under the same key.
	// It is not acknowledged; errors surface on the next read.
	FrameLane byte = 3
	// FrameLaneReq asks for the lane stored under (step, src, dst).
	FrameLaneReq byte = 4
	// FrameLaneData answers a FrameLaneReq with the stored payload.
	FrameLaneData byte = 5
	// FrameBarrier signals the end of superstep step, carrying the
	// engine's aggregator snapshot; the worker frees lanes of that step
	// and older and answers FrameBarrierAck.
	FrameBarrier byte = 6
	// FrameBarrierAck acknowledges a FrameBarrier.
	FrameBarrierAck byte = 7
	// FrameError reports a protocol-level failure; the payload is the
	// message text.
	FrameError byte = 8
)

// MaxFrameBytes bounds one frame's body. Lanes are per-(src,dst) message
// batches of one superstep; anything beyond this is a corrupt length
// prefix, not a real lane.
const MaxFrameBytes = 1 << 30

// frameCRC is the CRC32C table shared with the checkpoint container.
var frameCRC = crc32.MakeTable(crc32.Castagnoli)

// ErrFrameCorrupt marks frame decode failures caused by damaged bytes — a
// failed CRC, a truncated body, an unknown frame type, an oversized length
// prefix. Test with errors.Is.
var ErrFrameCorrupt = errors.New("transport frame corrupt")

// frameCorruptf builds an error wrapping ErrFrameCorrupt.
func frameCorruptf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrFrameCorrupt)...)
}

// Frame is one decoded protocol frame.
type Frame struct {
	Type    byte
	Step    int
	Src     int
	Dst     int
	Payload []byte
}

// AppendFrame appends the wire encoding of f to buf and returns the
// extended slice.
func AppendFrame(buf []byte, f Frame) []byte {
	body := make([]byte, 0, 16+len(f.Payload))
	body = append(body, f.Type)
	body = binary.AppendUvarint(body, uint64(f.Step))
	body = binary.AppendUvarint(body, uint64(f.Src))
	body = binary.AppendUvarint(body, uint64(f.Dst))
	body = binary.AppendUvarint(body, uint64(len(f.Payload)))
	body = append(body, f.Payload...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(body)))
	buf = append(buf, body...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(body, frameCRC))
}

// DecodeFrame decodes one frame from the front of data, returning the
// frame and the remaining bytes. All failures wrap ErrFrameCorrupt.
func DecodeFrame(data []byte) (Frame, []byte, error) {
	var f Frame
	if len(data) < 4 {
		return f, nil, frameCorruptf("truncated frame length prefix (%d bytes)", len(data))
	}
	n := binary.LittleEndian.Uint32(data[:4])
	if n == 0 {
		return f, nil, frameCorruptf("empty frame body")
	}
	if n > MaxFrameBytes {
		return f, nil, frameCorruptf("frame length %d exceeds the %d-byte bound", n, MaxFrameBytes)
	}
	data = data[4:]
	if uint32(len(data)) < n+4 {
		return f, nil, frameCorruptf("truncated frame: length prefix says %d+4 bytes, %d remain", n, len(data))
	}
	body, rest := data[:n], data[n:]
	want := binary.LittleEndian.Uint32(rest[:4])
	rest = rest[4:]
	if got := crc32.Checksum(body, frameCRC); got != want {
		return f, nil, frameCorruptf("frame CRC mismatch (stored %08x, computed %08x)", want, got)
	}
	var err error
	if f, err = decodeBody(body); err != nil {
		return f, nil, err
	}
	return f, rest, nil
}

// decodeBody parses a CRC-verified frame body.
func decodeBody(body []byte) (Frame, error) {
	var f Frame
	f.Type, body = body[0], body[1:]
	if f.Type < FrameHello || f.Type > FrameError {
		return f, frameCorruptf("unknown frame type %d", f.Type)
	}
	var err error
	if f.Step, body, err = consumeInt(body, "step"); err != nil {
		return f, err
	}
	if f.Src, body, err = consumeInt(body, "src"); err != nil {
		return f, err
	}
	if f.Dst, body, err = consumeInt(body, "dst"); err != nil {
		return f, err
	}
	n, body, err := consumeInt(body, "payload length")
	if err != nil {
		return f, err
	}
	if n != len(body) {
		return f, frameCorruptf("frame payload length %d does not match the %d body bytes left", n, len(body))
	}
	f.Payload = body
	return f, nil
}

// consumeInt decodes one non-negative uvarint field.
func consumeInt(data []byte, field string) (int, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, frameCorruptf("bad %s uvarint", field)
	}
	if v > MaxFrameBytes {
		return 0, nil, frameCorruptf("%s value %d out of range", field, v)
	}
	return int(v), data[n:], nil
}

// ReadFrame reads exactly one frame from r (blocking). I/O errors are
// returned as-is; malformed bytes wrap ErrFrameCorrupt.
func ReadFrame(r io.Reader) (Frame, error) {
	f, _, err := readFrameCount(r)
	return f, err
}

// readFrameCount is ReadFrame plus the number of wire bytes consumed, for
// exact traffic accounting.
func readFrameCount(r io.Reader) (Frame, int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, 0, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrameBytes {
		return Frame{}, 4, frameCorruptf("frame length %d out of range", n)
	}
	// The declared length is untrusted until the CRC checks out, so the
	// buffer grows (amortised) only as body bytes actually arrive: a peer
	// costs memory proportional to what it sent, not to what it claimed.
	total := 4 + int(n) + 4
	buf := make([]byte, 4, min(total, 4+readChunk))
	copy(buf, hdr[:])
	for len(buf) < total {
		have, step := len(buf), min(total-len(buf), readChunk)
		buf = slices.Grow(buf, step)[:have+step]
		if m, err := io.ReadFull(r, buf[have:]); err != nil {
			if err == io.EOF { // bare EOF from ReadFull: a chunk boundary, still mid-frame
				err = io.ErrUnexpectedEOF
			}
			return Frame{}, have + m, err
		}
	}
	f, _, err := DecodeFrame(buf)
	return f, len(buf), err
}

// readChunk is how far readFrameCount reads ahead of its buffer's proven
// contents.
const readChunk = 64 << 10

// helloPayload encodes the FrameHello payload: protocol version, the
// worker index being addressed, and the worker count.
const protocolVersion = 1

func helloPayload(worker, workers int) []byte {
	buf := binary.AppendUvarint(nil, protocolVersion)
	buf = binary.AppendUvarint(buf, uint64(worker))
	return binary.AppendUvarint(buf, uint64(workers))
}

func decodeHello(payload []byte) (version, worker, workers int, err error) {
	if version, payload, err = consumeInt(payload, "protocol version"); err != nil {
		return
	}
	if worker, payload, err = consumeInt(payload, "worker index"); err != nil {
		return
	}
	workers, _, err = consumeInt(payload, "worker count")
	return
}
