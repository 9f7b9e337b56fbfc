package dbg

import (
	"math/rand"
	"reflect"
	"testing"

	"ppaassembler/internal/dna"
	"ppaassembler/internal/pregel"
)

// A segment graph's checkpoint stores each node in its checkpoint
// encoding, so these tests pin that a node survives the encoding whole, in
// its own form: a derived k-mer stays derived.

// recordRoundTrip encodes n, decodes it back, and checks that the decode
// consumed exactly the encoding and gave the same node.
func recordRoundTrip(t *testing.T, n *Node) Node {
	t.Helper()
	var got Node
	rest, err := got.DecodeCheckpoint(n.AppendCheckpoint(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after decode", len(rest))
	}
	if got.ID != n.ID || got.Kind != n.Kind || got.Cov != n.Cov || got.K != n.K ||
		(got.Explicit == nil) != (n.Explicit == nil) || got.Bits != n.Bits || got.Covs != n.Covs ||
		!got.Oriented(L).Equal(n.Oriented(L)) || !reflect.DeepEqual(itemsOf(&got), itemsOf(n)) {
		t.Fatalf("round trip changed the node:\n got %+v items %+v\nwant %+v items %+v", got, itemsOf(&got), *n, itemsOf(n))
	}
	return got
}

func TestKmerRecordRoundTrip(t *testing.T) {
	var v KmerVertex
	v.AddEdge(AdjKmer{Base: dna.C, In: false, PSelf: L, PNbr: H, Cov: 3})
	v.AddEdge(AdjKmer{Base: dna.G, In: true, PSelf: H, PNbr: L, Cov: 400000})
	n := KmerNode(KmerID(dna.ParseKmer("ACGTACGTACGTACGTACGTA")), &v, 21)
	if got := recordRoundTrip(t, &n); got.Explicit != nil {
		t.Error("derived k-mer reloaded explicit")
	}
}

func TestPropKmerRecordRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for range 200 {
		v := randomVertex(r)
		k := 3 + 2*r.Intn(15)
		n := KmerNode(pregel.VertexID(r.Uint64()&dna.KmerMask(k)), &v, k)
		recordRoundTrip(t, &n)
	}
}

func TestNodeRecordRoundTrip(t *testing.T) {
	n := NewNode(ContigID(3, 99), KindContig, dna.ParseSeq("ACGTTGCAAGCTTAGCATCCGATCGGATTACA"), 17, []Adj{
		{Nbr: 12345, In: true, PSelf: L, PNbr: H, Cov: 9, NbrLen: 21},
		{Nbr: NullID, In: false, PSelf: L},
	})
	recordRoundTrip(t, &n)
}

func TestPropNodeRecordRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for range 200 {
		var sb dna.Builder
		for range r.Intn(200) {
			sb.Append(dna.Base(r.Intn(4)))
		}
		n := NewNode(pregel.VertexID(r.Uint64()), NodeKind(r.Intn(2)), sb.Seq(), uint32(r.Intn(1<<20)), nil)
		for range r.Intn(5) {
			n.Adj = append(n.Adj, Adj{
				Nbr:    pregel.VertexID(r.Uint64()),
				In:     r.Intn(2) == 0,
				PSelf:  Polarity(r.Intn(2)),
				PNbr:   Polarity(r.Intn(2)),
				Cov:    uint32(r.Intn(1 << 16)),
				NbrLen: int32(r.Intn(1 << 20)),
			})
		}
		recordRoundTrip(t, &n)
	}
}
