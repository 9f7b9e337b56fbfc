package dbg

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ppaassembler/internal/dna"
	"ppaassembler/internal/pregel"
)

func TestIDScheme(t *testing.T) {
	if NullID != 1<<63 {
		t.Errorf("NullID = %x", NullID)
	}
	id := ContigID(5, 7)
	if !IsContigID(id) {
		t.Error("contig ID not recognized")
	}
	if IsContigID(NullID) {
		t.Error("NullID misclassified as contig")
	}
	if ContigWorker(id) != 5 {
		t.Errorf("ContigWorker = %d", ContigWorker(id))
	}
	k := KmerID(dna.ParseKmer("ACGTACGTACGTACGTACGTACGTACGTACG"))
	if IsContigID(k) {
		t.Error("k-mer ID misclassified as contig")
	}
	// Flip marker round trip, on both k-mer and contig IDs.
	for _, v := range []pregel.VertexID{k, id} {
		f := FlipID(v)
		if !IsFlipped(f) || IsFlipped(v) {
			t.Errorf("flip marker wrong for %x", v)
		}
		if UnflipID(f) != v {
			t.Errorf("UnflipID(FlipID(%x)) = %x", v, UnflipID(f))
		}
		if FlipID(f) != v {
			t.Errorf("FlipID not an involution for %x", v)
		}
	}
}

func TestContigIDPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { ContigID(0, 0) },
		func() { ContigID(-1, 1) },
		func() { ContigID(1<<30, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestAdjKmerPaperExampleInItem(t *testing.T) {
	// Figure 8(b) item ①: vertex "ACGG" has in-neighbor "CGGC" via edge
	// polarity <H:H>, encoded as bitmap 00010111.
	a := AdjKmer{Base: dna.G, In: true, PSelf: H, PNbr: H}
	if got := a.Encode(); got != 0b00010111 {
		t.Errorf("Encode = %08b, want 00010111", got)
	}
	self := dna.ParseKmer("ACGG")
	if got := a.Neighbor(self, 4).String(4); got != "CGGC" {
		t.Errorf("Neighbor = %q, want CGGC", got)
	}
}

func TestAdjKmerPaperExampleOutItem(t *testing.T) {
	// Figure 8(b) item ②: vertex "ACGG" has out-neighbor "CGTA" via edge
	// polarity <H:L>: reverse-complement ACGG to CCGT, append A giving
	// CGTA, already canonical.
	a := AdjKmer{Base: dna.A, In: false, PSelf: H, PNbr: L}
	if got := a.Encode(); got != 0b00000010 {
		t.Errorf("Encode = %08b, want 00000010", got)
	}
	self := dna.ParseKmer("ACGG")
	if got := a.Neighbor(self, 4).String(4); got != "CGTA" {
		t.Errorf("Neighbor = %q, want CGTA", got)
	}
}

func TestAdjKmerNullItem(t *testing.T) {
	a := AdjKmer{Null: true}
	if a.Encode() != 0x80 {
		t.Errorf("NULL encodes as %08b", a.Encode())
	}
	d, err := DecodeAdjKmer(0x80)
	if err != nil || !d.Null {
		t.Errorf("decode NULL = %+v, %v", d, err)
	}
	if a.Flip() != a {
		t.Error("NULL flip changed the item")
	}
}

func TestDecodeAdjKmerRejectsGarbage(t *testing.T) {
	for _, b := range []byte{0xFF, 0xA0, 0x40, 0x81} {
		if _, err := DecodeAdjKmer(b); err == nil {
			t.Errorf("DecodeAdjKmer(%08b) accepted", b)
		}
	}
}

func randomAdj(r *rand.Rand) AdjKmer {
	return AdjKmer{
		Base:  dna.Base(r.Intn(4)),
		In:    r.Intn(2) == 0,
		PSelf: Polarity(r.Intn(2)),
		PNbr:  Polarity(r.Intn(2)),
		Cov:   uint32(r.Intn(1000)),
	}
}

func TestPropAdjEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomAdj(r)
		a.Cov = 0 // coverage travels outside the byte
		d, err := DecodeAdjKmer(a.Encode())
		return err == nil && d == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropFlipInvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomAdj(r)
		return a.Flip().Flip() == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropFlipPreservesNeighbor(t *testing.T) {
	// Property 1: the flipped item describes the same edge, so it must
	// resolve to the same neighbor vertex.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := []int{3, 5, 15, 31}[r.Intn(4)]
		self, _ := dna.Kmer(r.Uint64() & dna.KmerMask(k)).Canonical(k)
		a := randomAdj(r)
		return a.Flip().Neighbor(self, k) == a.Neighbor(self, k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropBitmapItemRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomAdj(r)
		a.Cov = 0
		return itemAt(bitIndex(a)) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestKmerVertexAddEdgeAccumulates(t *testing.T) {
	var v KmerVertex
	a := AdjKmer{Base: dna.C, In: false, PSelf: L, PNbr: H, Cov: 3}
	b := AdjKmer{Base: dna.G, In: true, PSelf: H, PNbr: L, Cov: 5}
	v.AddEdge(a)
	v.AddEdge(b)
	v.AddEdge(AdjKmer{Base: dna.C, In: false, PSelf: L, PNbr: H, Cov: 2})
	if v.Degree() != 2 {
		t.Fatalf("degree = %d, want 2", v.Degree())
	}
	items := v.Items()
	covs := map[byte]uint32{}
	for _, it := range items {
		covs[it.Encode()] = it.Cov
	}
	if covs[a.Encode()] != 5 {
		t.Errorf("cov of duplicated edge = %d, want 5", covs[a.Encode()])
	}
	if covs[b.Encode()] != 5 {
		t.Errorf("cov of single edge = %d, want 5", covs[b.Encode()])
	}
}

func TestPropKmerVertexItemsMatchInserted(t *testing.T) {
	// Inserting random items in random order and reading them back via the
	// bitmap must preserve the (item -> total coverage) mapping.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var v KmerVertex
		want := map[byte]uint32{}
		for i := 0; i < r.Intn(40); i++ {
			a := randomAdj(r)
			if _, seen := want[a.Encode()]; !seen && len(want) == MaxDegree {
				continue // no k-mer has more items
			}
			want[a.Encode()] += a.Cov
			v.AddEdge(a)
		}
		if v.Degree() != len(want) {
			return false
		}
		for _, it := range v.Items() {
			if want[it.Encode()] != it.Cov {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCovsVarintRoundTrip: a derived node's coverages travel as uvarints
// (the paper's variable-length integers), so a small count costs one byte.
func TestCovsVarintRoundTrip(t *testing.T) {
	v := KmerVertex{}
	v.AddEdge(AdjKmer{Base: dna.A, Cov: 1})
	v.AddEdge(AdjKmer{Base: dna.T, Cov: 300})
	v.AddEdge(AdjKmer{Base: dna.G, In: true, Cov: 4_000_000})
	n := KmerNode(5, &v, 21)
	var got Node
	if rest, err := got.DecodeCheckpoint(n.AppendCheckpoint(nil)); err != nil || len(rest) != 0 || got != n {
		t.Fatalf("decoded %+v (%d bytes left, %v), want %+v", got, len(rest), err, n)
	}
	// Small counts must take one byte (the paper's space argument): after
	// the form, ID, node coverage and k, the one-byte bitmap of a single
	// low item, then its coverage.
	one := KmerVertex{}
	one.AddEdge(AdjKmer{Base: dna.A, Cov: 9})
	n = KmerNode(5, &one, 21)
	if size := len(n.AppendCheckpoint(nil)); size != 6 {
		t.Errorf("derived node with one 1-digit coverage took %d bytes, want 6", size)
	}
}

// TestDecodeCovsErrors: a derived node's coverage list cut short, or a
// coverage past uint32, fails the decode.
func TestDecodeCovsErrors(t *testing.T) {
	head := []byte{formDerived, 5, 1, 21}
	var n Node
	if _, err := n.DecodeCheckpoint(append(head[:len(head):len(head)], 0x01, 0x05)); err != nil {
		t.Fatalf("well-formed derived node refused: %v", err)
	}
	for _, tail := range [][]byte{
		{0x03, 0x01},                         // two items, one coverage
		{0x01, 0x80},                         // a truncated uvarint
		{0x01, 0x85, 0x80, 0x80, 0x80, 0x10}, // 2^32+5
	} {
		data := append(head[:len(head):len(head)], tail...)
		if _, err := n.DecodeCheckpoint(data); err == nil {
			t.Errorf("% x decoded as %+v", data, n)
		}
	}
}

// DecodeAdjKmer inverts Encode. Coverage is carried separately.
func DecodeAdjKmer(b byte) (AdjKmer, error) {
	if b == nullAdjByte {
		return AdjKmer{Null: true}, nil
	}
	if b&0xE0 != 0 {
		return AdjKmer{}, fmt.Errorf("dbg: invalid adjacency byte %08b", b)
	}
	a := AdjKmer{Base: dna.Base(b >> 3 & 3), In: b>>2&1 == 1}
	x, y := Polarity(b>>1&1), Polarity(b&1)
	if a.In {
		a.PSelf, a.PNbr = y, x
	} else {
		a.PSelf, a.PNbr = x, y
	}
	return a, nil
}

// KPlus1 reconstructs the generating (k+1)-mer in this vertex's oriented
// reading direction (useful for tests and debugging).
func (a AdjKmer) KPlus1(self dna.Kmer, k int) dna.Kmer {
	o := oriented(self, a.PSelf, k)
	if a.In {
		return dna.Kmer(uint64(a.Base)<<(2*uint(k)) | uint64(o))
	}
	return dna.Kmer(uint64(o)<<2 | uint64(a.Base))
}
