package pregel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"strings"
)

// Checkpoint format v19, the only one this package reads or writes: a
// versioned, checksummed binary container holding one full snapshot of
// every worker's partition. Layout (all integers varint/uvarint unless
// noted):
//
//	magic "PPCK" | version | step | pending
//	| partitioner name | numWorkers | run counters
//	| clockNs (fixed 8 LE) | fingerprint (fixed 8 LE)
//	| aggregators: sum (varint) | or (bool byte)
//	| worker count | header CRC32C (fixed 4 LE, over every prior byte)
//	| per-worker: length | section bytes | section CRC32C (fixed 4 LE)
//
// The CRCs (Castagnoli polynomial) detect a torn or bit-flipped file at
// load time as ErrCheckpointCorrupt, letting recovery walk back to an older
// intact snapshot instead of restoring garbage. Anything else — no magic, or
// another version — is one "unsupported checkpoint format" error. The
// version also covers the value codecs inside the sections: v6/v7 were
// bumped because the segment graph's message/vertex encodings changed, v8
// because the header dropped its routing table and migration counters, v9
// because labeling's jobs changed (S-V got its own hello job, pending inboxes
// hold smaller messages), v10 because S-V runs over a vertex value of its own
// and the segment graph's vertex lost the S-V fields, v11 because the
// scaffold vertex lost its chain label and end coordinate, v12 because the
// S-V vertex and message carry addresses, v13 because the header dropped
// its transport name, v14 because delta checkpoints went away and the
// header with them lost its kind byte and previous-step field, v15
// because the segment graph's vertex writes its neighbour-ambiguity flags
// as one bit mask instead of a counted list of bools, and v16 because a
// k-mer node is written as its bitmap and coverages, an item's flags as one
// byte, and a k-mer vertex's coverage count is its bitmap's, v17
// because the aggregator snapshot lost its min section, v18 because a
// labeling message carries its sender's position and a list-ranking
// vertex's pointers are addresses, and v19 because a job has one unnamed
// sum and one unnamed OR aggregator, so the header carries their two values
// instead of two maps keyed by aggregator name; so an older file,
// whose CRCs still verify, is refused instead of decoded wrongly.
//
// A save never builds the container in one buffer: ckptParts lays it out as
// the header, each worker section as encoded (and checksummed) by its own
// worker, and small glue parts between them, and the store writes the parts
// in order.
//
// Each worker section starts with one flag byte, wsecBinary: the partition
// is encoded with the zero-copy value codec below, the only section
// encoding, so any other flag is a damaged section.

const (
	ckptMagic   = "PPCK"
	ckptVersion = 19

	wsecBinary byte = 0
)

// castagnoli is the CRC32C table used by every checkpoint checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCheckpointCorrupt marks decode failures caused by damaged bytes — a
// failed CRC, a truncated frame, garbage where the magic should be. Errors
// wrapping it mean "this artifact is broken, an older one may not be":
// recovery responds by walking back to the previous intact snapshot
// (loudly), whereas any other load error — version/identity mismatch, I/O —
// aborts the run. Test with errors.Is.
var ErrCheckpointCorrupt = errors.New("checkpoint data corrupt")

// corruptf builds an error wrapping ErrCheckpointCorrupt.
func corruptf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrCheckpointCorrupt)...)
}

// CheckpointAppender is implemented by vertex-value and message types that
// carry the engine's binary value codec: AppendCheckpoint appends a
// self-delimiting encoding of the receiver to buf and returns the extended
// slice. A run that checkpoints needs the codec for both V and M (Run
// refuses it otherwise); a run without checkpoints needs neither. Primitive
// value/message types (integers, floats, bool, string, VertexID, struct{})
// are handled by the codec directly and need no methods.
type CheckpointAppender interface {
	AppendCheckpoint(buf []byte) []byte
}

// CheckpointDecoder is the inverse of CheckpointAppender: DecodeCheckpoint
// replaces the receiver with the value encoded at the front of data and
// returns the remaining bytes.
type CheckpointDecoder interface {
	DecodeCheckpoint(data []byte) (rest []byte, err error)
}

// AppendUvarint / AppendVarint / AppendUint64 and their Consume inverses
// are the primitive wire helpers of the checkpoint codec, exported so
// packages implementing CheckpointAppender/CheckpointDecoder on their
// vertex types compose encodings from the same vocabulary.

// AppendUvarint appends v as a uvarint.
func AppendUvarint(buf []byte, v uint64) []byte { return binary.AppendUvarint(buf, v) }

// AppendVarint appends v as a zig-zag varint.
func AppendVarint(buf []byte, v int64) []byte { return binary.AppendVarint(buf, v) }

// AppendUint64 appends v as 8 little-endian bytes (used for floats via
// math.Float64bits, and for hashes where varint packing buys nothing).
func AppendUint64(buf []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(buf, v) }

// AppendBool appends v as one byte.
func AppendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// ConsumeUvarint decodes a uvarint from the front of data. Only the
// minimal encoding the Append helpers write is accepted (a longer one ends
// in a zero byte), so whatever decodes re-encodes to the same bytes.
func ConsumeUvarint(data []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 || n > 1 && data[n-1] == 0 {
		return 0, nil, corruptf("pregel: corrupt checkpoint encoding: bad uvarint")
	}
	return v, data[n:], nil
}

// ConsumeVarint decodes a zig-zag varint from the front of data, minimal
// encodings only (see ConsumeUvarint).
func ConsumeVarint(data []byte) (int64, []byte, error) {
	v, n := binary.Varint(data)
	if n <= 0 || n > 1 && data[n-1] == 0 {
		return 0, nil, corruptf("pregel: corrupt checkpoint encoding: bad varint")
	}
	return v, data[n:], nil
}

// ConsumeUint64 decodes 8 little-endian bytes from the front of data.
func ConsumeUint64(data []byte) (uint64, []byte, error) {
	if len(data) < 8 {
		return 0, nil, corruptf("pregel: corrupt checkpoint encoding: truncated uint64")
	}
	return binary.LittleEndian.Uint64(data), data[8:], nil
}

// ConsumeBool decodes one byte from the front of data.
func ConsumeBool(data []byte) (bool, []byte, error) {
	if len(data) < 1 {
		return false, nil, corruptf("pregel: corrupt checkpoint encoding: truncated bool")
	}
	return data[0] != 0, data[1:], nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func consumeString(data []byte) (string, []byte, error) {
	n, rest, err := ConsumeUvarint(data)
	if err != nil {
		return "", nil, err
	}
	if uint64(len(rest)) < n {
		return "", nil, corruptf("pregel: corrupt checkpoint encoding: truncated string")
	}
	return string(rest[:n]), rest[n:], nil
}

// appendBits packs a bool slice 8-per-byte (length known to the decoder).
func appendBits(buf []byte, bits []bool) []byte {
	var b byte
	for i, v := range bits {
		if v {
			b |= 1 << (i & 7)
		}
		if i&7 == 7 {
			buf = append(buf, b)
			b = 0
		}
	}
	if len(bits)&7 != 0 {
		buf = append(buf, b)
	}
	return buf
}

// consumeBits unpacks n bools packed by appendBits.
func consumeBits(data []byte, n int) ([]bool, []byte, error) {
	nb := (n + 7) / 8
	if len(data) < nb {
		return nil, nil, corruptf("pregel: corrupt checkpoint encoding: truncated bitset")
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = data[i/8]&(1<<(i&7)) != 0
	}
	return out, data[nb:], nil
}

// binaryCodecFor reports whether T round-trips through the binary value
// codec: either a codec primitive, or an implementation of both
// CheckpointAppender and CheckpointDecoder (on the pointer receiver).
func binaryCodecFor[T any]() bool {
	var z T
	switch any(z).(type) {
	case int64, uint64, int, int32, uint32, float64, bool, string, VertexID, struct{}:
		return true
	}
	if _, ok := any(&z).(CheckpointAppender); !ok {
		return false
	}
	_, ok := any(&z).(CheckpointDecoder)
	return ok
}

// checkCodecs refuses, before superstep 0, a checkpointing run when V or M
// has no binary codec, naming the offending type(s). A run without
// checkpoints encodes nothing and needs neither.
func (g *Graph[V, M]) checkCodecs(job string) error {
	if g.cfg.CheckpointEvery <= 0 {
		return nil
	}
	var missing []string
	if !binaryCodecFor[V]() {
		missing = append(missing, fmt.Sprintf("vertex type %T", *new(V)))
	}
	if !binaryCodecFor[M]() {
		missing = append(missing, fmt.Sprintf("message type %T", *new(M)))
	}
	if len(missing) == 0 {
		return nil
	}
	return fmt.Errorf("pregel: job %q: no binary value codec for %s; checkpoints need one (implement CheckpointAppender and CheckpointDecoder)",
		job, strings.Join(missing, " or "))
}

// appendVal appends one value with the binary codec. Only called for types
// binaryCodecFor admits; the pointer-shaped type switch keeps primitive
// fast paths allocation-free (no per-element boxing).
func appendVal[T any](buf []byte, v *T) []byte {
	switch x := any(v).(type) {
	case *int64:
		return binary.AppendVarint(buf, *x)
	case *uint64:
		return binary.AppendUvarint(buf, *x)
	case *int:
		return binary.AppendVarint(buf, int64(*x))
	case *int32:
		return binary.AppendVarint(buf, int64(*x))
	case *uint32:
		return binary.AppendUvarint(buf, uint64(*x))
	case *float64:
		return AppendUint64(buf, math.Float64bits(*x))
	case *bool:
		return AppendBool(buf, *x)
	case *string:
		return appendString(buf, *x)
	case *VertexID:
		return binary.AppendUvarint(buf, uint64(*x))
	case *struct{}:
		return buf
	case CheckpointAppender:
		return x.AppendCheckpoint(buf)
	}
	panic("pregel: appendVal on a type without a binary codec")
}

// consumeVal decodes one value encoded by appendVal into *v.
func consumeVal[T any](data []byte, v *T) ([]byte, error) {
	switch x := any(v).(type) {
	case *int64:
		val, rest, err := ConsumeVarint(data)
		*x = val
		return rest, err
	case *uint64:
		val, rest, err := ConsumeUvarint(data)
		*x = val
		return rest, err
	case *int:
		val, rest, err := ConsumeVarint(data)
		if err != nil {
			return rest, err
		}
		if int64(int(val)) != val {
			return nil, corruptf("pregel: corrupt checkpoint encoding: varint %d overflows int", val)
		}
		*x = int(val)
		return rest, nil
	case *int32:
		val, rest, err := ConsumeVarint(data)
		if err != nil {
			return rest, err
		}
		if val < math.MinInt32 || val > math.MaxInt32 {
			return nil, corruptf("pregel: corrupt checkpoint encoding: varint %d overflows int32", val)
		}
		*x = int32(val)
		return rest, nil
	case *uint32:
		val, rest, err := ConsumeUvarint(data)
		if err != nil {
			return rest, err
		}
		if val > math.MaxUint32 {
			return nil, corruptf("pregel: corrupt checkpoint encoding: uvarint %d overflows uint32", val)
		}
		*x = uint32(val)
		return rest, nil
	case *float64:
		bits, rest, err := ConsumeUint64(data)
		*x = math.Float64frombits(bits)
		return rest, err
	case *bool:
		val, rest, err := ConsumeBool(data)
		*x = val
		return rest, err
	case *string:
		val, rest, err := consumeString(data)
		*x = val
		return rest, err
	case *VertexID:
		val, rest, err := ConsumeUvarint(data)
		*x = VertexID(val)
		return rest, err
	case *struct{}:
		return data, nil
	case CheckpointDecoder:
		return x.DecodeCheckpoint(data)
	}
	panic("pregel: consumeVal on a type without a binary codec")
}

// ckptSample is how many vertices and messages sampleSizes encodes.
const ckptSample = 64

// sizeSample is the encoded size of k entries spread evenly across a
// partition: their total and the largest.
type sizeSample struct{ total, max, k int }

func (s *sizeSample) add(size int) {
	s.total, s.max, s.k = s.total+size, max(s.max, size), s.k+1
}

// scale estimates the bytes of n such entries. The largest sampled entry
// counts once rather than n/k times, so one huge value (a long merged
// contig among short vertices) does not inflate the estimate n/k-fold;
// undershooting costs only a regrow.
func (s sizeSample) scale(n int) int {
	if n == 0 || s.k == 0 {
		return 0
	}
	if s.k == 1 {
		return n * s.total
	}
	return s.max + int(float64(n-1)*float64(s.total-s.max)/float64(s.k-1))
}

// sampleSizes encodes up to ckptSample vertex entries (ID gap, value,
// inbox count) and pending messages, each spread evenly across w.
func sampleSizes[V, M any](w *worker[V, M]) (verts, msgs sizeSample) {
	var buf []byte
	for i, stride := 0, (len(w.ids)+ckptSample-1)/ckptSample; i < len(w.ids); i += stride {
		gap := uint64(w.ids[i])
		if i > 0 {
			gap -= uint64(w.ids[i-1])
		}
		buf = binary.AppendUvarint(buf[:0], gap)
		buf = appendVal(buf, &w.vals[i])
		buf = binary.AppendUvarint(buf, uint64(w.inOff[i+1]-w.inOff[i]))
		verts.add(len(buf))
	}
	for j, stride := 0, (len(w.inArena)+ckptSample-1)/ckptSample; j < len(w.inArena); j += stride {
		msgs.add(len(appendVal(buf[:0], &w.inArena[j])))
	}
	return verts, msgs
}

// sectionBuf returns the empty buffer w's section is encoded into: an
// estimate scaled up from sampleSizes (plus a byte per vertex for the
// active/dead bitsets) with 1/16 headroom, so the encoder does not regrow
// it. Every save samples afresh; the previous section's length would be no
// guide, because pending inboxes fill and drain between saves (the largest
// sections of a labeling job grow 43% and shrink 22% from one save to the
// next, where the sample stays within 1%).
func sectionBuf[V, M any](w *worker[V, M]) []byte {
	verts, ms := sampleSizes(w)
	n := len(w.ids)
	size := 32 + n + verts.scale(n) + ms.scale(len(w.inArena))
	return make([]byte, 0, size+size/16)
}

// fitSection returns an encoded section as the store will keep it: buf
// itself, or an exact-size copy when the estimate overshot by more than a
// quarter (and a page), so a misjudged sample never leaves slack held
// until the next save.
func fitSection(buf []byte) []byte {
	if cap(buf)-len(buf) <= max(len(buf)/4, 4096) {
		return buf
	}
	return append(make([]byte, 0, len(buf)), buf...)
}

// encodeWorkerSection serializes one worker partition with the binary
// value codec, into a buffer from sectionBuf.
func encodeWorkerSection[V, M any](w *worker[V, M]) []byte {
	n := len(w.ids)
	buf := sectionBuf(w)
	buf = append(buf, wsecBinary)
	buf = binary.AppendUvarint(buf, uint64(n))
	// IDs delta-encoded: sorted runs cost ~1 byte per vertex, and uint64
	// wraparound keeps arbitrary orders correct.
	prev := uint64(0)
	for _, id := range w.ids {
		buf = binary.AppendUvarint(buf, uint64(id)-prev)
		prev = uint64(id)
	}
	for i := range w.vals {
		buf = appendVal(buf, &w.vals[i])
	}
	buf = appendBits(buf, w.active)
	buf = appendBits(buf, w.dead)
	// Pending inbox: per-vertex counts, then the arena in order.
	for i := 0; i < n; i++ {
		buf = binary.AppendUvarint(buf, uint64(w.inOff[i+1]-w.inOff[i]))
	}
	for i := range w.inArena {
		buf = appendVal(buf, &w.inArena[i])
	}
	return fitSection(buf)
}

// decodeWorkerSection inverts encodeWorkerSection.
func decodeWorkerSection[V, M any](data []byte) (*ckptWorker[V, M], error) {
	if len(data) == 0 {
		return nil, corruptf("pregel: corrupt checkpoint: empty worker section")
	}
	if data[0] != wsecBinary {
		return nil, corruptf("pregel: corrupt checkpoint: unknown worker section flag %d", data[0])
	}
	un, data, err := ConsumeUvarint(data[1:])
	if err != nil {
		return nil, err
	}
	// Every vertex costs at least one ID byte, so a count beyond the bytes
	// on hand is corruption — reject before the allocations below trust it.
	if un > uint64(len(data)) {
		return nil, corruptf("pregel: corrupt checkpoint: worker section claims %d vertices in %d bytes", un, len(data))
	}
	n := int(un)
	cw := &ckptWorker[V, M]{
		IDs:  make([]VertexID, n),
		Vals: make([]V, n),
	}
	prev := uint64(0)
	for i := 0; i < n; i++ {
		d, rest, err := ConsumeUvarint(data)
		if err != nil {
			return nil, err
		}
		prev += d
		cw.IDs[i] = VertexID(prev)
		data = rest
	}
	for i := 0; i < n; i++ {
		if data, err = consumeVal(data, &cw.Vals[i]); err != nil {
			return nil, err
		}
	}
	if cw.Active, data, err = consumeBits(data, n); err != nil {
		return nil, err
	}
	if cw.Dead, data, err = consumeBits(data, n); err != nil {
		return nil, err
	}
	for _, d := range cw.Dead {
		if d {
			cw.NDead++
		}
	}
	cw.InOff = make([]int32, n+1)
	off := int64(0)
	for i := 0; i < n; i++ {
		c, rest, err := ConsumeUvarint(data)
		if err != nil {
			return nil, err
		}
		cw.InOff[i] = int32(off)
		off += int64(c)
		if off > math.MaxInt32 {
			return nil, corruptf("pregel: corrupt checkpoint: inbox arena of %d messages overflows the offset table", off)
		}
		data = rest
	}
	cw.InOff[n] = int32(off)
	// Bound the arena allocation by the bytes left: every message costs at
	// least one byte unless the message type encodes to nothing (struct{},
	// for which the allocation below is free regardless).
	var probe M
	if off > int64(len(data)) && len(appendVal(nil, &probe)) > 0 {
		return nil, corruptf("pregel: corrupt checkpoint: worker section claims %d messages in %d bytes", off, len(data))
	}
	cw.InArena = make([]M, off)
	for i := range cw.InArena {
		if data, err = consumeVal(data, &cw.InArena[i]); err != nil {
			return nil, err
		}
	}
	if len(data) != 0 {
		return nil, corruptf("pregel: corrupt checkpoint: %d trailing bytes in worker section", len(data))
	}
	return cw, nil
}

// appendContainerHeader writes the container header — everything up to and
// including the worker count, which is the header-CRC coverage.
func appendContainerHeader(buf []byte, f *ckptFile) []byte {
	buf = append(buf, ckptMagic...)
	buf = binary.AppendUvarint(buf, ckptVersion)
	buf = binary.AppendUvarint(buf, uint64(f.Step))
	buf = binary.AppendVarint(buf, f.Pending)
	buf = appendString(buf, f.PartitionerName)
	buf = binary.AppendUvarint(buf, uint64(f.NumWorkers))
	buf = binary.AppendUvarint(buf, uint64(f.Supersteps))
	buf = binary.AppendVarint(buf, f.Messages)
	buf = binary.AppendVarint(buf, f.LocalMessages)
	buf = binary.AppendVarint(buf, f.RemoteMessages)
	buf = binary.AppendVarint(buf, f.Bytes)
	buf = binary.AppendVarint(buf, f.DroppedMessages)
	buf = AppendUint64(buf, math.Float64bits(f.ClockNs))
	buf = AppendUint64(buf, f.Fingerprint)
	buf = binary.AppendVarint(buf, f.Agg.Sum)
	buf = AppendBool(buf, f.Agg.Or)
	buf = binary.AppendUvarint(buf, uint64(len(f.Workers)))
	return buf
}

// ckptParts lays f out as the 2W+1 parts of its container, W =
// len(f.Workers), without copying a section: parts[0] is the header, its
// CRC and section 0's length; parts[2i+1] is section i itself; parts[2i+2]
// is section i's CRC (crcs[i]) and section i+1's length, the last one the
// CRC alone. The parts' concatenation is the container.
func ckptParts(f *ckptFile, crcs []uint32) [][]byte {
	parts := make([][]byte, 0, 2*len(f.Workers)+1)
	hdr := appendContainerHeader(make([]byte, 0, 160), f)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(hdr, castagnoli))
	if len(f.Workers) > 0 {
		hdr = binary.AppendUvarint(hdr, uint64(len(f.Workers[0])))
	}
	parts = append(parts, hdr)
	// One backing array for every glue part; its capacity is their total
	// maximum, so the appends below never move the bytes already handed out.
	glue := make([]byte, 0, len(f.Workers)*(crc32.Size+binary.MaxVarintLen64))
	for i, sec := range f.Workers {
		start := len(glue)
		glue = binary.LittleEndian.AppendUint32(glue, crcs[i])
		if i+1 < len(f.Workers) {
			glue = binary.AppendUvarint(glue, uint64(len(f.Workers[i+1])))
		}
		parts = append(parts, sec, glue[start:len(glue):len(glue)])
	}
	return parts
}

// decodeCkptFile parses a container of format ckptVersion.
func decodeCkptFile(job string, data []byte) (*ckptFile, error) {
	f, _, err := decodeCkptFileBounds(job, data)
	return f, err
}

// decodeCkptFileBounds is decodeCkptFile plus the container's internal
// boundaries: bounds[0] is the byte offset where the header (including its
// CRC) ends, bounds[i+1] where worker section i (including its CRC) ends.
// The torn-write tests truncate at exactly these offsets, and
// VerifyCheckpointDir reports them.
func decodeCkptFileBounds(job string, data []byte) (*ckptFile, []int64, error) {
	full := data
	if len(data) == 0 {
		// An empty file is what a dropped fsync leaves behind — corruption,
		// eligible for walk-back, unlike the wrong-format cases below.
		return nil, nil, corruptf("pregel: checkpoint for job %q is an empty file", job)
	}
	// Deliberately NOT ErrCheckpointCorrupt: bytes in another format mean
	// another binary wrote them, and walking back to an older generation
	// written by that same binary would not help.
	unsupported := func(what string) (*ckptFile, []int64, error) {
		return nil, nil, fmt.Errorf("pregel: checkpoint for job %q is in an unsupported checkpoint format (%s); this binary reads and writes format v%d only — rerun with the binary that wrote it, or delete the checkpoint directory to start fresh", job, what, ckptVersion)
	}
	if len(data) < len(ckptMagic) || string(data[:len(ckptMagic)]) != ckptMagic {
		return unsupported(fmt.Sprintf("no %q magic", ckptMagic))
	}
	data = data[len(ckptMagic):]
	ver, data, err := ConsumeUvarint(data)
	if err != nil {
		return nil, nil, err
	}
	if ver != ckptVersion {
		return unsupported(fmt.Sprintf("format v%d", ver))
	}
	var f ckptFile
	fail := func(err error) (*ckptFile, []int64, error) {
		return nil, nil, fmt.Errorf("pregel: decoding checkpoint (job %q): %w", job, err)
	}
	var u uint64
	if u, data, err = ConsumeUvarint(data); err != nil {
		return fail(err)
	}
	f.Step = int(u)
	if f.Pending, data, err = ConsumeVarint(data); err != nil {
		return fail(err)
	}
	if f.PartitionerName, data, err = consumeString(data); err != nil {
		return fail(err)
	}
	if u, data, err = ConsumeUvarint(data); err != nil {
		return fail(err)
	}
	f.NumWorkers = int(u)
	if u, data, err = ConsumeUvarint(data); err != nil {
		return fail(err)
	}
	f.Supersteps = int(u)
	if f.Messages, data, err = ConsumeVarint(data); err != nil {
		return fail(err)
	}
	if f.LocalMessages, data, err = ConsumeVarint(data); err != nil {
		return fail(err)
	}
	if f.RemoteMessages, data, err = ConsumeVarint(data); err != nil {
		return fail(err)
	}
	if f.Bytes, data, err = ConsumeVarint(data); err != nil {
		return fail(err)
	}
	if f.DroppedMessages, data, err = ConsumeVarint(data); err != nil {
		return fail(err)
	}
	if u, data, err = ConsumeUint64(data); err != nil {
		return fail(err)
	}
	f.ClockNs = math.Float64frombits(u)
	if f.Fingerprint, data, err = ConsumeUint64(data); err != nil {
		return fail(err)
	}
	if f.Agg.Sum, data, err = ConsumeVarint(data); err != nil {
		return fail(err)
	}
	if f.Agg.Or, data, err = ConsumeBool(data); err != nil {
		return fail(err)
	}
	if u, data, err = ConsumeUvarint(data); err != nil {
		return fail(err)
	}
	// Each worker section costs at least its length prefix.
	if u > uint64(len(data)) {
		return fail(corruptf("container claims %d worker sections in %d bytes", u, len(data)))
	}
	hdrLen := len(full) - len(data)
	if len(data) < crc32.Size {
		return fail(corruptf("truncated header CRC"))
	}
	want := binary.LittleEndian.Uint32(data[:crc32.Size])
	data = data[crc32.Size:]
	if got := crc32.Checksum(full[:hdrLen], castagnoli); got != want {
		return fail(corruptf("header CRC mismatch (stored %08x, computed %08x)", want, got))
	}
	bounds := make([]int64, 0, int(u)+1)
	bounds = append(bounds, int64(len(full)-len(data)))
	f.Workers = make([][]byte, int(u))
	for i := range f.Workers {
		var l uint64
		if l, data, err = ConsumeUvarint(data); err != nil {
			return fail(err)
		}
		if uint64(len(data)) < l {
			return fail(corruptf("truncated worker section %d", i))
		}
		sec := data[:l:l]
		data = data[l:]
		if len(data) < crc32.Size {
			return fail(corruptf("truncated CRC of worker section %d", i))
		}
		want := binary.LittleEndian.Uint32(data[:crc32.Size])
		data = data[crc32.Size:]
		if got := crc32.Checksum(sec, castagnoli); got != want {
			return fail(corruptf("worker section %d CRC mismatch (stored %08x, computed %08x)", i, want, got))
		}
		f.Workers[i] = sec
		bounds = append(bounds, int64(len(full)-len(data)))
	}
	if len(data) != 0 {
		return fail(corruptf("%d trailing bytes", len(data)))
	}
	return &f, bounds, nil
}
