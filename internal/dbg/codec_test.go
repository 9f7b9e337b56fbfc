package dbg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ppaassembler/internal/dna"
	"ppaassembler/internal/pregel"
)

func TestKmerRecordRoundTrip(t *testing.T) {
	var v KmerVertex
	v.AddEdge(AdjKmer{Base: dna.C, In: false, PSelf: L, PNbr: H, Cov: 3})
	v.AddEdge(AdjKmer{Base: dna.G, In: true, PSelf: H, PNbr: L, Cov: 400000})
	id := KmerID(dna.ParseKmer("ACGTACGTACGTACGTACGTA"))
	rec := MarshalKmerRecord(id, &v)
	id2, v2, err := UnmarshalKmerRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id || v2.Adj != v.Adj {
		t.Errorf("round trip mismatch: id %x vs %x", id2, id)
	}
	for i := range v.Covs[:v.Degree()] {
		if v2.Covs[i] != v.Covs[i] {
			t.Errorf("cov %d mismatch", i)
		}
	}
}

func TestPropKmerRecordRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var v KmerVertex
		for i := 0; i < r.Intn(10); i++ {
			v.AddEdge(randomAdj(r))
		}
		id := pregel.VertexID(r.Uint64() & dna.KmerMask(21))
		id2, v2, err := UnmarshalKmerRecord(MarshalKmerRecord(id, &v))
		if err != nil || id2 != id || v2.Adj != v.Adj {
			return false
		}
		for i := range v.Covs[:v.Degree()] {
			if v2.Covs[i] != v.Covs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNodeRecordRoundTrip(t *testing.T) {
	n := NewNode(0, KindContig, dna.ParseSeq("ACGTTGCAAGCTTAGCATCCGATCGGATTACA"), 17, []Adj{
		{Nbr: 12345, In: true, PSelf: L, PNbr: H, Cov: 9, NbrLen: 21},
		{Nbr: NullID, In: false, PSelf: L},
	})
	id := ContigID(3, 99)
	id2, n2, err := UnmarshalNodeRecord(MarshalNodeRecord(id, &n))
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id || n2.Kind != n.Kind || n2.Cov != n.Cov {
		t.Errorf("header mismatch: %x %v %d", id2, n2.Kind, n2.Cov)
	}
	if !n2.Seq.Equal(n.Seq) {
		t.Error("sequence mismatch")
	}
	if len(n2.Adj) != 2 || n2.Adj[0] != n.Adj[0] || n2.Adj[1] != n.Adj[1] {
		t.Errorf("adjacency mismatch: %+v", n2.Adj)
	}
}

func TestPropNodeRecordRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var sb dna.Builder
		for i := 0; i < r.Intn(200); i++ {
			sb.Append(dna.Base(r.Intn(4)))
		}
		n := NewNode(0, NodeKind(r.Intn(2)), sb.Seq(), uint32(r.Intn(1<<20)), nil)
		for i := 0; i < r.Intn(5); i++ {
			n.Adj = append(n.Adj, Adj{
				Nbr:    pregel.VertexID(r.Uint64()),
				In:     r.Intn(2) == 0,
				PSelf:  Polarity(r.Intn(2)),
				PNbr:   Polarity(r.Intn(2)),
				Cov:    uint32(r.Intn(1 << 16)),
				NbrLen: int32(r.Intn(1 << 20)),
			})
		}
		id := pregel.VertexID(r.Uint64())
		id2, n2, err := UnmarshalNodeRecord(MarshalNodeRecord(id, &n))
		if err != nil || id2 != id || !n2.Seq.Equal(n.Seq) || n2.Cov != n.Cov || n2.Kind != n.Kind {
			return false
		}
		if len(n2.Adj) != len(n.Adj) {
			return false
		}
		for i := range n.Adj {
			if n2.Adj[i] != n.Adj[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	for _, s := range []string{"", "zz", "00", "ff00", "0102030405"} {
		if _, _, err := UnmarshalKmerRecord(s); err == nil {
			t.Errorf("UnmarshalKmerRecord(%q) accepted", s)
		}
		if _, _, err := UnmarshalNodeRecord(s); err == nil {
			t.Errorf("UnmarshalNodeRecord(%q) accepted", s)
		}
	}
	// Truncated but hex-valid node record.
	n := NewNode(0, KindKmer, dna.ParseSeq("ACGTA"), 0, nil)
	rec := MarshalNodeRecord(7, &n)
	if _, _, err := UnmarshalNodeRecord(rec[:len(rec)-4]); err == nil {
		t.Error("truncated node record accepted")
	}
	// Trailing garbage.
	if _, _, err := UnmarshalNodeRecord(rec + "0011"); err == nil {
		t.Error("node record with trailing bytes accepted")
	}
}
