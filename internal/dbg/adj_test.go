package dbg

import (
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

func TestCovsVarintRoundTrip(t *testing.T) {
	v := KmerVertex{}
	v.AddEdge(AdjKmer{Base: dna.A, Cov: 1})
	v.AddEdge(AdjKmer{Base: dna.T, Cov: 300})
	v.AddEdge(AdjKmer{Base: dna.G, In: true, Cov: 4_000_000})
	enc := v.EncodeCovs()
	got, err := DecodeCovs(enc, v.Degree())
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != v.Covs[i] {
			t.Errorf("cov[%d] = %d, want %d", i, got[i], v.Covs[i])
		}
	}
	// Small counts must take one byte (the paper's space argument).
	one := KmerVertex{}
	one.AddEdge(AdjKmer{Base: dna.A, Cov: 9})
	if len(one.EncodeCovs()) != 1 {
		t.Errorf("1-digit coverage took %d bytes", len(one.EncodeCovs()))
	}
}

func TestDecodeCovsErrors(t *testing.T) {
	if _, err := DecodeCovs([]byte{0x80}, 1); err == nil {
		t.Error("truncated varint accepted")
	}
	if _, err := DecodeCovs([]byte{1, 2}, 1); err == nil {
		t.Error("trailing bytes accepted")
	}
}
