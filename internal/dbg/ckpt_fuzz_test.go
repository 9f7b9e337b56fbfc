package dbg

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ppaassembler/internal/dna"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/pregel/ckpttest"
)

// fuzzGen derives struct fields deterministically from raw fuzz input, so
// the fuzzer's byte mutations explore the codec's value space.
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

func (g *fuzzGen) u32() uint32 { return uint32(g.u64()) }

func (g *fuzzGen) n(max int) int { return int(g.b()) % (max + 1) }

func (g *fuzzGen) seq() dna.Seq {
	s := dna.NewSeq(0)
	for n := g.n(70); n > 0; n-- {
		s = s.Append(dna.Base(g.b() & 3))
	}
	return s
}

func (g *fuzzGen) adj() Adj {
	return Adj{
		Nbr:    pregel.VertexID(g.u64()),
		In:     g.flag(),
		PSelf:  Polarity(g.b() & 1),
		PNbr:   Polarity(g.b() & 1),
		Cov:    g.u32(),
		NbrLen: int32(g.u64()),
	}
}

// node draws either form: a derived k-mer (odd K, an ID that is a K-mer
// code, at most InlineCovs items) or an explicit node.
func (g *fuzzGen) node() Node {
	if g.flag() {
		k := 1 + 2*g.n(15)
		n := Node{ID: pregel.VertexID(g.u64() & dna.KmerMask(k)), Kind: KindKmer, K: uint8(k), Cov: g.u32()}
		for bm := g.u32(); bm != 0 && n.Bits.Count() < InlineCovs; bm &= bm - 1 {
			n.Bits |= Bitmap32(bm & -bm)
		}
		for i := range n.Bits.Count() {
			n.Covs[i] = g.u32()
		}
		return n
	}
	n := NewNode(pregel.VertexID(g.u64()), NodeKind(g.b()&1), g.seq(), g.u32(), nil)
	if na := g.n(4); na > 0 {
		n.Adj = make([]Adj, na)
		for i := range n.Adj {
			n.Adj[i] = g.adj()
		}
	}
	return n
}

// FuzzNodeCodecDifferential also decodes the raw fuzz input as an Adj and
// a Node: whatever a decoder accepts must be a value the methods accept,
// so every item of a decoded node is readable (checkDecoded).
func FuzzNodeCodecDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x03, 0x41, 0x42})
	// A derived k-mer: form, ID, coverage, K, bitmap 0b11, two coverages.
	f.Add([]byte{formDerived, 5, 1, 3, 3, 7, 9})
	// An item with a polarity byte above 1 (the pre-v16 layout).
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &fuzzGen{data: data}
		a := g.adj()
		ckpttest.RoundTrip[Adj](t, &a)
		n := g.node()
		ckpttest.RoundTrip[Node](t, &n)
		ckpttest.NoPanic[Adj](t, data)
		ckpttest.NoPanic[Node](t, data)
		ckpttest.Corrupt[Adj](t, &a, data)
		ckpttest.Corrupt[Node](t, &n, data)
		checkDecoded(t, data)
		checkDecoded(t, n.AppendCheckpoint(nil))
	})
}

// checkDecoded decodes data as an Adj and a Node, and reads
// every item of whatever decodes: a decoder must not hand out a value
// whose items cannot be read.
func checkDecoded(t *testing.T, data []byte) {
	t.Helper()
	var a Adj
	if _, err := a.DecodeCheckpoint(data); err == nil && (a.PSelf > H || a.PNbr > H) {
		t.Fatalf("Adj decoded with polarities %d, %d", a.PSelf, a.PNbr)
	}
	var n Node
	if _, err := n.DecodeCheckpoint(data); err == nil {
		_ = itemsOf(&n)
		_ = n.Oriented(H)
	}
}

// decodeExact decodes data as a T and, if that succeeds, requires the
// value to encode back to exactly the bytes it consumed: a decoder that
// truncates a field accepts bytes no value encodes to.
func decodeExact[T any, P ckpttest.Codec[T]](t *testing.T, name string, data []byte) {
	t.Helper()
	var v T
	rest, err := P(&v).DecodeCheckpoint(data)
	if err != nil {
		return
	}
	if re := P(&v).AppendCheckpoint(nil); !bytes.Equal(re, data[:len(data)-len(rest)]) {
		t.Errorf("%T: %s: % x decoded to %+v, which encodes to % x", v, name, data, v, re)
	}
}

// TestDecodersRejectInconsistentInput: bytes that no value encodes to fail
// to decode, in the layouts of this format and of the one before it,
// instead of yielding a value that has lost bits or later panics.
func TestDecodersRejectInconsistentInput(t *testing.T) {
	const wide = 1 << 32
	u := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	adjBytes := func(flags []byte, cov uint64, nbrLen int64) []byte {
		b := binary.LittleEndian.AppendUint64(nil, 42)
		b = append(b, flags...)
		b = binary.AppendUvarint(b, cov)
		return binary.AppendVarint(b, nbrLen)
	}
	derived := func(id uint64, k byte, bm uint64, covs ...uint64) []byte {
		b := append([]byte{formDerived}, u(id, 1)...)
		return append(append(b, k), u(append([]uint64{bm}, covs...)...)...)
	}
	cases := map[string][]byte{
		"item: polarity byte above 1":           adjBytes([]byte{0, 2, 0}, 1, 21),
		"item: flags above three bits":          adjBytes([]byte{8}, 1, 21),
		"item: coverage wider than 32 bits":     adjBytes([]byte{0, 0, 0}, wide, 21),
		"item: length wider than 32 bits":       adjBytes([]byte{0, 0, 0}, 1, wide),
		"node: unknown form":                    {formExplicitContig + 1, 0, 0},
		"node: even k":                          derived(5, 4, 1, 1),
		"node: ID no k-mer of length k":         derived(1<<10, 5, 1, 1),
		"node: items past InlineCovs":           derived(5, 5, 0b11111, 1, 1, 1, 1, 1),
		"node: bitmap 0b11, one coverage":       derived(5, 5, 0b11, 1),
		"node: bitmap wider than 32 bits":       derived(5, 5, wide|1, 1),
		"node: explicit, item polarity above 1": append([]byte{formExplicitKmer, 0, 0, 0, 1}, adjBytes([]byte{0, 2, 0}, 1, 21)...),
	}
	for name, data := range cases {
		decodeExact[Adj](t, name, data)
		decodeExact[Node](t, name, data)
		checkDecoded(t, data)
	}
	for _, name := range []string{"item: flags above three bits"} {
		var a Adj
		if _, err := a.DecodeCheckpoint(cases[name]); err == nil {
			t.Errorf("Adj: %s: decoded %+v", name, a)
		}
	}
	for _, name := range []string{"node: unknown form", "node: even k", "node: ID no k-mer of length k",
		"node: items past InlineCovs", "node: bitmap 0b11, one coverage", "node: bitmap wider than 32 bits"} {
		var n Node
		if _, err := n.DecodeCheckpoint(cases[name]); err == nil {
			t.Errorf("Node: %s: decoded %+v", name, n)
		}
	}
}
