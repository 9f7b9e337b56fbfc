package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"ppaassembler/internal/dbg"
	"ppaassembler/internal/dna"
	"ppaassembler/internal/genome"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/pregel/ckpttest"
)

// fuzzGen derives struct fields deterministically from raw fuzz input.
type fuzzGen struct {
	data []byte
	i    int
}

func (g *fuzzGen) b() byte {
	if g.i >= len(g.data) {
		return 0
	}
	v := g.data[g.i]
	g.i++
	return v
}

func (g *fuzzGen) flag() bool { return g.b()&1 == 1 }

func (g *fuzzGen) u64() uint64 {
	var raw [8]byte
	for i := range raw {
		raw[i] = g.b()
	}
	return binary.LittleEndian.Uint64(raw[:])
}

func (g *fuzzGen) id() pregel.VertexID { return pregel.VertexID(g.u64()) }

func (g *fuzzGen) n(max int) int { return int(g.b()) % (max + 1) }

func (g *fuzzGen) seq() dna.Seq {
	s := dna.NewSeq(0)
	for n := g.n(70); n > 0; n-- {
		s = s.Append(dna.Base(g.b() & 3))
	}
	return s
}

func (g *fuzzGen) adj() dbg.Adj {
	return dbg.Adj{
		Nbr:    g.id(),
		In:     g.flag(),
		PSelf:  dbg.Polarity(g.b() & 1),
		PNbr:   dbg.Polarity(g.b() & 1),
		Cov:    uint32(g.u64()),
		NbrLen: int32(g.u64()),
	}
}

// node draws either form: a derived k-mer (odd K, an ID that is a K-mer
// code, at most InlineCovs items) or an explicit node.
func (g *fuzzGen) node() dbg.Node {
	if g.flag() {
		k := 1 + 2*g.n(15)
		n := dbg.Node{ID: g.id() & pregel.VertexID(dna.KmerMask(k)), Kind: dbg.KindKmer, K: uint8(k), Cov: uint32(g.u64())}
		for bm := uint32(g.u64()); bm != 0 && n.Bits.Count() < dbg.InlineCovs; bm &= bm - 1 {
			n.Bits |= dbg.Bitmap32(bm & -bm)
		}
		for i := range n.Bits.Count() {
			n.Covs[i] = uint32(g.u64())
		}
		return n
	}
	n := dbg.NewNode(g.id(), dbg.NodeKind(g.b()&1), g.seq(), uint32(g.u64()), nil)
	if na := g.n(4); na > 0 {
		n.Adj = make([]dbg.Adj, na)
		for i := range n.Adj {
			n.Adj[i] = g.adj()
		}
	}
	return n
}

// FuzzVDataCodecDifferential checks the segment-graph vertex value — the
// richest state shape the checkpoint codec carries (nested node, sequence,
// adjacency, per-side labeling state) — against the gob baseline. An
// ambiguity mask with a bit past the last adjacency item is not a state the
// pipeline makes, and its encoding must fail to decode.
func FuzzVDataCodecDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x05, 0x00, 0x41})
	// A node with no adjacency items (kind, empty sequence, coverage, item
	// count) and ambiguity mask bit 0.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &fuzzGen{data: data}
		v := VData{
			Node:       g.node(),
			NbrAmbig:   uint32(g.b()),
			Ambig:      g.flag(),
			Label:      g.id(),
			Labeled:    g.flag(),
			Cycle:      g.flag(),
			LastActive: int64(g.u64()),
			TipProbed:  g.flag(),
		}
		for i := 0; i < 2; i++ {
			v.SideNbr[i] = g.id()
			v.HasSide[i] = g.flag()
			v.P[i] = g.id()
			v.PSide[i] = g.b()
			v.Done[i] = g.flag()
		}
		if v.NbrAmbig>>v.Node.Degree() != 0 {
			var got VData
			if _, err := got.DecodeCheckpoint(v.AppendCheckpoint(nil)); err == nil {
				t.Fatalf("mask %#b over %d adjacency items decoded", v.NbrAmbig, v.Node.Degree())
			}
			v.NbrAmbig &= 1<<v.Node.Degree() - 1
		}
		ckpttest.RoundTrip[VData](t, &v)
		ckpttest.NoPanic[VData](t, data)
		ckpttest.Corrupt[VData](t, &v, data)
	})
}

func FuzzMsgCodecDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 1, 0, 2, 3, 1, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff, 0x11, 0x22})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &fuzzGen{data: data}
		m := Msg{
			ID:    g.id(),
			Cov:   uint32(g.u64()),
			Len:   int32(g.u64()),
			Kind:  MsgKind(g.b()),
			Side:  g.b(),
			Side2: g.b(),
			Flag:  g.flag(),
			P1:    dbg.Polarity(g.b()),
			P2:    dbg.Polarity(g.b()),
		}
		ckpttest.RoundTrip[Msg](t, &m)
		ckpttest.NoPanic[Msg](t, data)
		ckpttest.Corrupt[Msg](t, &m, data)
	})
}

// FuzzLabelMsgCodecDifferential checks the labeling message against the gob
// baseline.
func FuzzLabelMsgCodecDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 0, 1, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff, 0x11, 0x80, 0x40, 0x9c, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &fuzzGen{data: data}
		m := labelMsg{
			Kind:  MsgKind(g.b()),
			Side:  g.b(),
			Side2: g.b(),
			Flag:  g.flag(),
			ID:    g.id(),
			Pos:   uint32(g.u64()),
		}
		ckpttest.RoundTrip[labelMsg](t, &m)
		ckpttest.NoPanic[labelMsg](t, data)
		ckpttest.Corrupt[labelMsg](t, &m, data)
	})
}

// FuzzSVVertexCodecDifferential checks the S-V vertex value against the
// gob baseline.
func FuzzSVVertexCodecDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0x80, 1, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &fuzzGen{data: data}
		v := svVertex{
			D:       g.id(),
			NbrMin:  g.id(),
			DA:      pregel.Addr(g.u64()),
			NbrMinA: pregel.Addr(g.u64()),
			NbrA:    [2]pregel.Addr{pregel.Addr(g.u64()), pregel.Addr(g.u64())},
			Live:    [2]bool{g.flag(), g.flag()},
			DNew:    g.flag(),
			Idle:    g.flag(),
		}
		ckpttest.RoundTrip[svVertex](t, &v)
		ckpttest.NoPanic[svVertex](t, data)
		ckpttest.Corrupt[svVertex](t, &v, data)
	})
}

// FuzzSVMsgCodecDifferential checks the S-V message against the gob
// baseline.
func FuzzSVMsgCodecDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x09, 0x0e, 0xc7, 0xf3, 0xa5, 0x02, 0, 0, 0x39, 0x30, 0, 0, 3, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x40, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &fuzzGen{data: data}
		m := svMsg{ID: g.id(), A: pregel.Addr(g.u64())}
		ckpttest.RoundTrip[svMsg](t, &m)
		ckpttest.NoPanic[svMsg](t, data)
		ckpttest.Corrupt[svMsg](t, &m, data)
	})
}

// TestSVVertexLayoutFence keeps the S-V job's vertex at 56 bytes — two IDs,
// four addresses and four flags — which is what makes its supersteps cheap
// next to VData's, and pins its encoding: the IDs fixed 8-byte, the
// addresses uvarints, the flags one byte.
func TestSVVertexLayoutFence(t *testing.T) {
	v := svVertex{D: 0x0102030405060708, NbrMin: 3, DA: 2<<32 | 5, NbrMinA: 7,
		NbrA: [2]pregel.Addr{4, 1 << 32}, Live: [2]bool{true, false}, DNew: true}
	if got := unsafe.Sizeof(v); got != 56 {
		t.Errorf("svVertex is %d bytes, want 56", got)
	}
	want := []byte{8, 7, 6, 5, 4, 3, 2, 1, 3, 0, 0, 0, 0, 0, 0, 0,
		0x85, 0x80, 0x80, 0x80, 0x20, // DA = 2<<32 | 5
		7,                            // NbrMinA
		4,                            // NbrA[0]
		0x80, 0x80, 0x80, 0x80, 0x10, // NbrA[1] = 1<<32
		0b0101}
	if got := v.AppendCheckpoint(nil); !bytes.Equal(got, want) {
		t.Errorf("svVertex encoding changed:\n got %v\nwant %v", got, want)
	}
}

// TestSVQueryTagIsNoVertexID: the tag that marks an S-V query is dbg's
// flip bit, which neither a k-mer ID (at most 62 bits) nor a contig ID
// carries, so a query can never be mistaken for a broadcast D.
func TestSVQueryTagIsNoVertexID(t *testing.T) {
	if svQuery != dbg.FlipID(0) {
		t.Fatalf("svQuery = %#x, want dbg's flip bit %#x", uint64(svQuery), uint64(dbg.FlipID(0)))
	}
	for _, id := range []pregel.VertexID{
		dbg.KmerID(dna.Kmer(1<<62 - 1)), // the largest 31-mer code
		dbg.ContigID(1<<30-1, math.MaxUint32),
		dbg.ContigID(0, 1),
	} {
		if id&svQuery != 0 {
			t.Errorf("vertex ID %#x carries the S-V query tag", uint64(id))
		}
	}
}

// TestVDataLayoutFence bounds a k-mer vertex's partition value at 120
// bytes and pins VData's widest-first field order: every job of ops ②–⑤
// but S-V streams it once per superstep, and every checkpoint encodes it.
// A derived k-mer's node (dbg.TestNodeSizeFence) owns no heap object, so
// the value is the whole cost of the vertex.
func TestVDataLayoutFence(t *testing.T) {
	var v VData
	if got := unsafe.Sizeof(v); got > 120 {
		t.Errorf("VData is %d bytes, want at most 120", got)
	}
	offsets := []struct {
		field     string
		got, want uintptr
	}{
		{"Node", unsafe.Offsetof(v.Node), 0},
		{"SideNbr", unsafe.Offsetof(v.SideNbr), 48},
		{"P", unsafe.Offsetof(v.P), 64},
		{"Label", unsafe.Offsetof(v.Label), 80},
		{"LastActive", unsafe.Offsetof(v.LastActive), 88},
		{"NbrAmbig", unsafe.Offsetof(v.NbrAmbig), 96},
		{"PSide", unsafe.Offsetof(v.PSide), 100},
		{"HasSide", unsafe.Offsetof(v.HasSide), 102},
		{"Done", unsafe.Offsetof(v.Done), 104},
		{"Ambig", unsafe.Offsetof(v.Ambig), 106},
		{"Labeled", unsafe.Offsetof(v.Labeled), 107},
		{"Cycle", unsafe.Offsetof(v.Cycle), 108},
		{"TipProbed", unsafe.Offsetof(v.TipProbed), 109},
	}
	for _, o := range offsets {
		if o.got != o.want {
			t.Errorf("VData.%s at offset %d, want %d", o.field, o.got, o.want)
		}
	}
}

// TestNewSegmentGraphAllocsFence: loading the DBG as the segment graph
// allocates per worker, never per vertex, because a derived k-mer node owns
// no heap object and every partition is filled once at its exact size. Two
// graphs four times apart in size cost the same number of allocations.
func TestNewSegmentGraphAllocsFence(t *testing.T) {
	const k = 21
	cfg := pregel.Config{Workers: 3}
	allocs := func(genomeLen int) (float64, int) {
		ref, err := genome.Generate(genome.Spec{Length: genomeLen, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		s := ref.String()
		var reads []string
		for i := 0; i+100 <= len(s); i += 40 {
			reads = append(reads, s[i:i+100])
		}
		clock := pregel.NewSimClock(pregel.DefaultCost())
		b, err := dbg.BuildDBG(clock, cfg, [][]string{reads}, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		// A process's first GC starts its mark workers, which allocates;
		// run one first so no such one-off lands in the count.
		runtime.GC()
		return testing.AllocsPerRun(5, func() { NewSegmentGraph(b, cfg, clock, k) }), NewSegmentGraph(b, cfg, clock, k).VertexCount()
	}
	small, nSmall := allocs(4000)
	large, nLarge := allocs(16000)
	if nLarge < 3*nSmall {
		t.Fatalf("graphs of %d and %d vertices are too close in size", nSmall, nLarge)
	}
	if large != small {
		t.Errorf("NewSegmentGraph allocates %.0f times for %d vertices and %.0f for %d: a cost per vertex", small, nSmall, large, nLarge)
	}
}

// TestMemberLayoutFence pins op ③'s shuffle record at 24 bytes (32 with its
// 8-byte key): it must point at the partition's node, not copy it.
func TestMemberLayoutFence(t *testing.T) {
	if got := unsafe.Sizeof(member{}); got != 24 {
		t.Errorf("member is %d bytes, want 24", got)
	}
}

// TestLabelMsgLayoutFence pins labelMsg at 16 bytes (a routed lane entry,
// destination plus message, is 24) with the position in the ID's padding,
// its field offsets, and its encoding.
func TestLabelMsgLayoutFence(t *testing.T) {
	var m labelMsg
	if got := unsafe.Sizeof(m); got != 16 {
		t.Errorf("labelMsg is %d bytes, want 16: a field was added or the widest-first order broken", got)
	}
	offsets := []struct {
		field     string
		got, want uintptr
	}{
		{"ID", unsafe.Offsetof(m.ID), 0},
		{"Pos", unsafe.Offsetof(m.Pos), 8},
		{"Kind", unsafe.Offsetof(m.Kind), 12},
		{"Side", unsafe.Offsetof(m.Side), 13},
		{"Side2", unsafe.Offsetof(m.Side2), 14},
		{"Flag", unsafe.Offsetof(m.Flag), 15},
	}
	for _, o := range offsets {
		if o.got != o.want {
			t.Errorf("labelMsg.%s at offset %d, want %d", o.field, o.got, o.want)
		}
	}
	m = labelMsg{Kind: MsgResp, ID: 0x0102030405060708, Pos: 0x0a0b0c0d, Side: 1, Side2: 2, Flag: true}
	want := []byte{byte(MsgResp), 1, 2, 1, 8, 7, 6, 5, 4, 3, 2, 1, 0xd, 0xc, 0xb, 0xa}
	if got := m.AppendCheckpoint(nil); !bytes.Equal(got, want) {
		t.Errorf("labelMsg encoding changed:\n got %v\nwant %v", got, want)
	}
}

// TestLabelMsgWireBytesMatchesCodec keeps the labeling jobs' wire charges
// honest. labelMsg's encoding has a fixed size, so labelMsgWireBytes must be
// exactly the size of every representative (a hello with its position, a
// push of an address and of a flipped contig-end ID). An S-V message is two uvarints;
// svMsgWireBytes is its size for a k-mer-sized ID of a default-option run
// and the address of a vertex on any worker but the first.
func TestLabelMsgWireBytesMatchesCodec(t *testing.T) {
	const kmerID = pregel.VertexID(0x2a5f3c71e09) // a 21-mer's 42-bit ID
	for _, m := range []labelMsg{
		{Kind: MsgHello, ID: kmerID, Pos: 40_000, Side: 1, Flag: true},
		{Kind: MsgResp, ID: pregel.VertexID(3<<32 | 40_000), Side: 1, Side2: 1},
		{Kind: MsgResp, ID: dbg.FlipID(kmerID), Side: 1},
	} {
		if n := len(m.AppendCheckpoint(nil)); n != labelMsgWireBytes {
			t.Errorf("%+v encodes in %d bytes, labelMsgWireBytes = %d", m, n, labelMsgWireBytes)
		}
	}
	for _, w := range []uint64{1, 3, 6} {
		m := svMsg{ID: kmerID, A: pregel.Addr(w<<32 | 40_000)}
		if n := len(m.AppendCheckpoint(nil)); n != svMsgWireBytes {
			t.Errorf("%+v encodes in %d bytes, svMsgWireBytes = %d", m, n, svMsgWireBytes)
		}
	}
}

// TestMsgLayoutFence pins the two properties the widest-first field order of
// Msg must keep apart: the in-memory size (24 bytes, so a routed lane entry —
// an 8-byte destination plus the message — is 32) with its field order, and
// the encoding, which is written field by field and so must not notice the
// declaration order.
func TestMsgLayoutFence(t *testing.T) {
	var m Msg
	if got := unsafe.Sizeof(m); got != 24 {
		t.Errorf("Msg is %d bytes, want 24: a field was added or the widest-first order broken", got)
	}
	offsets := []struct {
		field string
		got   uintptr
		want  uintptr
	}{
		{"ID", unsafe.Offsetof(m.ID), 0},
		{"Cov", unsafe.Offsetof(m.Cov), 8},
		{"Len", unsafe.Offsetof(m.Len), 12},
		{"Kind", unsafe.Offsetof(m.Kind), 16},
		{"Side", unsafe.Offsetof(m.Side), 17},
		{"Side2", unsafe.Offsetof(m.Side2), 18},
		{"Flag", unsafe.Offsetof(m.Flag), 19},
		{"P1", unsafe.Offsetof(m.P1), 20},
		{"P2", unsafe.Offsetof(m.P2), 21},
	}
	for _, o := range offsets {
		if o.got != o.want {
			t.Errorf("Msg.%s at offset %d, want %d", o.field, o.got, o.want)
		}
	}
	m = Msg{Kind: MsgSVHook, ID: 0x0102030405060708, Side: 1, Side2: 2, Flag: true,
		Len: -300, Cov: 70000, P1: 1, P2: 2}
	want := []byte{byte(MsgSVHook), 1, 2, 1, 2, 1,
		8, 7, 6, 5, 4, 3, 2, 1,
		0xd7, 0x04, 0xf0, 0xa2, 0x04}
	if got := m.AppendCheckpoint(nil); !bytes.Equal(got, want) {
		t.Errorf("Msg encoding changed:\n got %v\nwant %v", got, want)
	}
}

// TestMsgWireBytesMatchesCodec keeps the simulated wire charge honest: one
// representative message per kind, with the values a default-option run
// sends (k-mer-sized IDs, a 2 kbp contig, the default 80 bp tip bound), is
// encoded, and MsgWireBytes must be within two bytes of the largest.
func TestMsgWireBytesMatchesCodec(t *testing.T) {
	const kmerID = pregel.VertexID(0x2a5f3c71e09b) // a 21-mer's 42-bit ID
	tipLen := DefaultOptions(1).TipLen
	reps := []Msg{
		{Kind: MsgHello, ID: kmerID, Side: 1, Flag: true},
		{Kind: MsgReq, ID: kmerID, Side: 1, Side2: 1},
		{Kind: MsgResp, ID: kmerID, Side: 1, Side2: 1},
		{Kind: MsgSVQuery, ID: kmerID},
		{Kind: MsgSVReply, ID: kmerID},
		{Kind: MsgSVNbr, ID: kmerID},
		{Kind: MsgSVHook, ID: kmerID},
		{Kind: MsgCtgLink, ID: kmerID, Flag: true, P1: dbg.H, Cov: 25, Len: 2000},
		{Kind: MsgTipReq, ID: kmerID, Len: tipReqLen(1<<20, tipLen)},
		{Kind: MsgTipDel, ID: kmerID},
	}
	largest := 0
	for i, m := range reps {
		if m.Kind != MsgKind(i) {
			t.Fatalf("representative %d has kind %d", i, m.Kind)
		}
		n := len(m.AppendCheckpoint(nil))
		t.Logf("kind %d: %d bytes", m.Kind, n)
		largest = max(largest, n)
	}
	if d := MsgWireBytes - largest; d < -2 || d > 2 {
		t.Errorf("MsgWireBytes = %d, largest representative encoding %d bytes", MsgWireBytes, largest)
	}
}

// TestTipReqLenCaps pins the REQUEST length cap: lengths up to tipLen pass
// through, everything longer becomes tipLen+1 (which fails the tip test
// just as the real length would), and no length wraps negative in the
// int32 field, even past math.MaxInt32.
func TestTipReqLenCaps(t *testing.T) {
	cases := []struct {
		n, tipLen int
		want      int32
	}{
		{0, 80, 0},
		{79, 80, 79},
		{80, 80, 80},
		{81, 80, 81},
		{5000, 80, 81},
		{math.MaxInt32, 80, 81},
		{math.MaxInt32 + 1, 80, 81},
		{1 << 40, 80, 81},
		{math.MaxInt, 80, 81},
		{1 << 40, math.MaxInt32 - 1, math.MaxInt32},
		{1 << 40, math.MaxInt32, math.MaxInt32},
		{1 << 40, math.MaxInt, math.MaxInt32},
		{7, math.MaxInt, 7},
	}
	for _, c := range cases {
		got := tipReqLen(c.n, c.tipLen)
		if got != c.want {
			t.Errorf("tipReqLen(%d, %d) = %d, want %d", c.n, c.tipLen, got, c.want)
		}
		if got < 0 {
			t.Errorf("tipReqLen(%d, %d) wrapped negative", c.n, c.tipLen)
		}
		if (int(got) <= c.tipLen) != (c.n <= c.tipLen) && c.tipLen < math.MaxInt32 {
			t.Errorf("tipReqLen(%d, %d) = %d changes the tip decision", c.n, c.tipLen, got)
		}
	}
}
