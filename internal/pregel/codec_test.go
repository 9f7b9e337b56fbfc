package pregel

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// roundTrip pushes a value through appendVal/consumeVal and requires the
// decoded copy to match and the cursor to land exactly past the encoding.
func roundTrip[T any](t *testing.T, v T) {
	t.Helper()
	buf := appendVal(nil, &v)
	var got T
	rest, err := consumeVal(buf, &got)
	if err != nil {
		t.Fatalf("consumeVal(%T %v): %v", v, v, err)
	}
	if len(rest) != 0 {
		t.Fatalf("consumeVal(%T %v): %d trailing bytes", v, v, len(rest))
	}
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("round trip of %T: got %v, want %v", v, got, v)
	}
}

func TestValueCodecPrimitives(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 1<<62 - 1, -(1 << 62)} {
		roundTrip(t, v)
	}
	for _, v := range []uint64{0, 1, 127, 128, 1<<64 - 1} {
		roundTrip(t, v)
	}
	roundTrip(t, int(-123456))
	roundTrip(t, int32(-7))
	roundTrip(t, uint32(1<<32-1))
	for _, v := range []float64{0, -0.5, 3.14159, 1e300} {
		roundTrip(t, v)
	}
	roundTrip(t, true)
	roundTrip(t, false)
	for _, v := range []string{"", "a", "checkpoint v2", strings.Repeat("x", 300)} {
		roundTrip(t, v)
	}
	roundTrip(t, VertexID(1<<63))
	roundTrip(t, struct{}{})
}

// plainMsg has no binary value codec.
type plainMsg struct {
	Share int64
	Hops  int32
}

// TestRunRefusesTypesWithoutCodec: a checkpointing run over a codec-less
// vertex or message type fails before superstep 0 with an error naming the
// type, and leaves the graph untouched. The same types run without
// checkpoints.
func TestRunRefusesTypesWithoutCodec(t *testing.T) {
	const n = 64
	compute := func(ctx *Context[plainMsg], id VertexID, v *plainMsg, msgs []plainMsg) {
		for _, m := range msgs {
			v.Share += m.Share + int64(m.Hops)
		}
		if ctx.Superstep() >= 5 {
			ctx.VoteToHalt()
			return
		}
		ctx.Send(VertexID((uint64(id)+3)%n), plainMsg{Share: v.Share % 97, Hops: int32(ctx.Superstep())})
	}
	build := func(cfg Config) *Graph[plainMsg, plainMsg] {
		g := NewGraph[plainMsg, plainMsg](cfg)
		for i := 0; i < n; i++ {
			g.AddVertex(VertexID(i), plainMsg{Share: int64(i)})
		}
		return g
	}
	sum := func(g *Graph[plainMsg, plainMsg]) (s int64) {
		g.ForEach(func(_ VertexID, v *plainMsg) { s += v.Share })
		return s
	}
	untouched := sum(build(Config{Workers: 4}))
	g := build(Config{Workers: 4, CheckpointEvery: 2})
	_, err := g.Run(compute, WithName("nocodec"))
	if err == nil {
		t.Fatal("a codec-less checkpointing run was accepted")
	}
	for _, want := range []string{"vertex type pregel.plainMsg", "message type pregel.plainMsg"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error does not name the %s: %v", want, err)
		}
	}
	if got := sum(g); got != untouched {
		t.Errorf("refused run changed vertex values (sum %d, want %d)", got, untouched)
	}
	// Only the offending type is named.
	m := NewGraph[int64, plainMsg](Config{Workers: 4, CheckpointEvery: 2})
	m.AddVertex(1, 0)
	if _, err := m.Run(func(ctx *Context[plainMsg], _ VertexID, _ *int64, _ []plainMsg) { ctx.VoteToHalt() }); err == nil ||
		strings.Contains(err.Error(), "vertex type") || !strings.Contains(err.Error(), "message type pregel.plainMsg") {
		t.Errorf("codec-less message type with checkpoints: %v", err)
	}

	g = build(Config{Workers: 4})
	if _, err := g.Run(compute, WithName("nocodec")); err != nil {
		t.Fatalf("run without checkpoints: %v", err)
	}
	if sum(g) == untouched {
		t.Error("the run without checkpoints did not compute")
	}
}

func TestBinaryCodecAdmission(t *testing.T) {
	if !binaryCodecFor[int64]() || !binaryCodecFor[VertexID]() || !binaryCodecFor[string]() {
		t.Error("primitive types must admit the binary codec")
	}
	if binaryCodecFor[plainMsg]() {
		t.Error("a struct without codec methods must not admit the binary codec")
	}
	if binaryCodecFor[[]int64]() {
		t.Error("a slice type must not admit the binary codec")
	}
}

// buildCodecWorker assembles a worker partition with dead vertices, halted
// vertices, a ragged pending inbox and an empty-inbox tail — every shape
// the section codec must carry.
func buildCodecWorker() *worker[int64, int64] {
	w := &worker[int64, int64]{
		verts: &verts[int64]{
			ids:    []VertexID{3, 5, 100, 1 << 40, 1<<40 + 1},
			vals:   []int64{-7, 0, 42, 1 << 50, -(1 << 50)},
			active: []bool{true, false, true, true, false},
			dead:   []bool{false, false, true, false, false},
			nDead:  1,
		},
		inArena: []int64{10, 11, 12, -13},
		inOff:   []int32{0, 2, 2, 3, 4, 4},
		inCur:   make([]int32, 5),
	}
	return w
}

func sectionEqual(t *testing.T, label string, got, want *ckptWorker[int64, int64]) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: decoded section = %+v, want %+v", label, got, want)
	}
}

func TestWorkerSectionRoundTrip(t *testing.T) {
	w := buildCodecWorker()
	want := &ckptWorker[int64, int64]{
		IDs: w.ids, Vals: w.vals, Active: w.active, Dead: w.dead,
		NDead: 1, InArena: w.inArena, InOff: w.inOff,
	}
	got, err := decodeWorkerSection[int64, int64](encodeWorkerSection(w))
	if err != nil {
		t.Fatal(err)
	}
	sectionEqual(t, "binary", got, want)
	bad := encodeWorkerSection(w)
	bad[0] = 1 // the flag byte the retired gob sections carried
	if _, err := decodeWorkerSection[int64, int64](bad); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("section flag 1 decoded with %v, want a corrupt-section error", err)
	}
}

// TestWorkerSectionBinarySmallerThanGob: the value codec must stay denser
// than a gob encoding of the same partition, the reflection encoding it
// replaced.
func TestWorkerSectionBinarySmallerThanGob(t *testing.T) {
	w := buildCodecWorker()
	var gb bytes.Buffer
	if err := gob.NewEncoder(&gb).Encode(ckptWorker[int64, int64]{
		IDs: w.ids, Vals: w.vals, Active: w.active, Dead: w.dead,
		NDead: w.nDead, InArena: w.inArena, InOff: w.inOff,
	}); err != nil {
		t.Fatal(err)
	}
	if bin := encodeWorkerSection(w); len(bin) >= gb.Len() {
		t.Errorf("binary section is %d bytes, gob is %d; the zero-copy codec should be denser", len(bin), gb.Len())
	}
}

// TestCheckpointCodecSizeFence gates the section size of the synthetic
// partition BenchmarkCheckpointCodec encodes. The size is deterministic;
// the ceiling is the committed baseline of the former benchmark artifact
// (commit 8584b4f) times 1.25.
func TestCheckpointCodecSizeFence(t *testing.T) {
	const maxFullBytes = 984_699 * 1.25 // baseline full_bytes: 984 699
	full := encodeWorkerSection(benchWorker(50_000, 2))
	t.Logf("full section %d bytes", len(full))
	if float64(len(full)) > maxFullBytes {
		t.Errorf("full section is %d bytes, ceiling %.0f", len(full), maxFullBytes)
	}
}

func makeCodecCkptFile() *ckptFile {
	return &ckptFile{
		Step: 6, Pending: 17,
		PartitionerName: "hash", NumWorkers: 3,
		Supersteps: 7, Messages: 1234, LocalMessages: 1000, RemoteMessages: 234,
		Bytes: 99999, DroppedMessages: 2, ClockNs: 1.5e9, Fingerprint: 0xdeadbeefcafe,
		Agg: aggSnapshot{
			Sum: map[string]int64{"rank": 42, "acc": -7},
			Or:  map[string]bool{"done": true},
		},
		Workers: [][]byte{{1, 2, 3}, {}, {9}},
	}
}

func TestCkptFileRoundTrip(t *testing.T) {
	f := makeCodecCkptFile()
	got, err := decodeCkptFile("job@000", encodeCkptFile(f))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, f) {
		t.Errorf("container round trip:\n got %+v\nwant %+v", got, f)
	}
}

func TestCkptFileRoundTripEmptyAgg(t *testing.T) {
	f := &ckptFile{PartitionerName: "range", NumWorkers: 1, Workers: [][]byte{{0}}}
	got, err := decodeCkptFile("job@000", encodeCkptFile(f))
	if err != nil {
		t.Fatal(err)
	}
	// Empty aggregator maps may decode as nil; compare through a fresh
	// encode instead of DeepEqual on the maps.
	if !reflect.DeepEqual(encodeCkptFile(got), encodeCkptFile(f)) {
		t.Errorf("empty-agg container did not round trip")
	}
}

func TestDecodeCkptFileRejectsV1Gob(t *testing.T) {
	_, err := decodeCkptFile("job@000", []byte{0x20, 0xff, 0x81, 0x03})
	if err == nil {
		t.Fatal("decoding gob-shaped bytes succeeded")
	}
	if !strings.Contains(err.Error(), "unsupported checkpoint format") {
		t.Errorf("error does not name the unsupported format: %v", err)
	}
	if errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("a foreign format must not look like corruption (walk-back would not help): %v", err)
	}
}

// TestDecodeCkptFileRejectsFutureVersion: any version but ckptVersion —
// the v2–v16 containers earlier commits wrote, or a future one — is one
// unsupported format error, never a misread.
func TestDecodeCkptFileRejectsFutureVersion(t *testing.T) {
	for _, ver := range []byte{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, ckptVersion + 1} {
		blob := encodeCkptFile(makeCodecCkptFile())
		// The version uvarint sits right after the 4-byte magic; versions
		// below 128 encode as one byte.
		if blob[4] != ckptVersion {
			t.Fatalf("test assumption broken: blob[4] = %d, want the version byte", blob[4])
		}
		blob[4] = ver
		_, err := decodeCkptFile("job@000", blob)
		if err == nil {
			t.Fatalf("decoding a v%d container succeeded", ver)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("unsupported checkpoint format (format v%d)", ver)) {
			t.Errorf("error does not name the version mismatch: %v", err)
		}
		if errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("a version mismatch must not look like corruption (walk-back would not help): %v", err)
		}
	}
}

// TestDecodeCkptFileDetectsBitFlips: flipping any single byte of a
// container must fail decode, and — past the magic/version prefix — fail
// it with ErrCheckpointCorrupt; that is the CRC's whole job. A flipped
// magic byte or version byte makes another format, so those two report
// hard identification errors instead.
func TestDecodeCkptFileDetectsBitFlips(t *testing.T) {
	clean := encodeCkptFile(makeCodecCkptFile())
	if _, err := decodeCkptFile("job@000", clean); err != nil {
		t.Fatal(err)
	}
	for i := range clean {
		blob := append([]byte(nil), clean...)
		blob[i] ^= 0x40
		_, err := decodeCkptFile("job@000", blob)
		if err == nil {
			t.Fatalf("flipping byte %d of %d went undetected", i, len(blob))
		}
		if i > len(ckptMagic) && !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("flipping byte %d: error is not ErrCheckpointCorrupt: %v", i, err)
		}
	}
}

// TestDecodeCkptFileBounds: the reported section boundaries tile the
// container — header end, then each worker section end, with the last
// bound at the container's end.
func TestDecodeCkptFileBounds(t *testing.T) {
	f := makeCodecCkptFile()
	blob := encodeCkptFile(f)
	_, bounds, err := decodeCkptFileBounds("job@000", blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) != len(f.Workers)+1 {
		t.Fatalf("got %d bounds for %d workers", len(bounds), len(f.Workers))
	}
	if bounds[len(bounds)-1] != int64(len(blob)) {
		t.Errorf("last bound %d != container size %d", bounds[len(bounds)-1], len(blob))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Errorf("bounds not strictly increasing: %v", bounds)
		}
		// A container truncated at any section boundary (except the full
		// length) must fail decode as corrupt.
		if bounds[i] < int64(len(blob)) {
			if _, err := decodeCkptFile("job@000", blob[:bounds[i]]); !errors.Is(err, ErrCheckpointCorrupt) {
				t.Errorf("truncation at bound %d not detected as corruption: %v", bounds[i], err)
			}
		}
	}
}

// TestConsumeValRangeChecks: varints that overflow the destination type
// must error instead of silently truncating.
func TestConsumeValRangeChecks(t *testing.T) {
	overflow64 := appendVal(nil, ptr(int64(math.MaxInt32+1)))
	var i32 int32
	if _, err := consumeVal(overflow64, &i32); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("int32 overflow not rejected: %v (decoded %d)", err, i32)
	}
	underflow64 := appendVal(nil, ptr(int64(math.MinInt32-1)))
	if _, err := consumeVal(underflow64, &i32); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("int32 underflow not rejected: %v", err)
	}
	var u32 uint32
	big := appendVal(nil, ptr(uint64(math.MaxUint32+1)))
	if _, err := consumeVal(big, &u32); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("uint32 overflow not rejected: %v", err)
	}
	// Boundary values still round-trip.
	roundTrip(t, int32(math.MaxInt32))
	roundTrip(t, int32(math.MinInt32))
	roundTrip(t, uint32(math.MaxUint32))
	roundTrip(t, int(math.MaxInt64))
	roundTrip(t, int(math.MinInt64))
}

func ptr[T any](v T) *T { return &v }

func TestDecodeCkptFileRejectsTruncation(t *testing.T) {
	blob := encodeCkptFile(makeCodecCkptFile())
	for _, cut := range []int{5, len(blob) / 2, len(blob) - 1} {
		if _, err := decodeCkptFile("job@000", blob[:cut]); err == nil {
			t.Errorf("decoding a container truncated to %d/%d bytes succeeded", cut, len(blob))
		}
	}
}
