package core

import (
	"path/filepath"
	"testing"

	"ppaassembler/internal/dbg"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/shardio"
)

func TestDumpLoadSegmentsRoundTrip(t *testing.T) {
	r := seededRand(71)
	reads := []string{randomCleanGenome(r, 80, 9)}
	g := buildSegGraph(t, reads, 9, 3)
	store, err := shardio.Open(filepath.Join(t.TempDir(), "seg"))
	if err != nil {
		t.Fatal(err)
	}
	if err := DumpSegments(g, store); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadSegments(store, pregel.Config{Workers: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g2.VertexCount() != g.VertexCount() {
		t.Fatalf("loaded %d vertices, want %d", g2.VertexCount(), g.VertexCount())
	}
	g.ForEach(func(id pregel.VertexID, v *VData) {
		v2, ok := g2.Value(id)
		if !ok {
			t.Fatalf("vertex %x lost", id)
		}
		if !v2.Node.Oriented(dbg.L).Equal(v.Node.Oriented(dbg.L)) || v2.Node.Degree() != v.Node.Degree() {
			t.Fatalf("vertex %x node differs", id)
		}
		for i, a := range v.Node.Items() {
			if v2.Node.Adj[i] != a {
				t.Fatalf("vertex %x adj %d differs", id, i)
			}
		}
	})
	// The reloaded graph must be fully operable: label and merge it.
	if _, err := LabelContigs(g2, LabelerLR); err != nil {
		t.Fatal(err)
	}
	m, err := MergeContigs(g2, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pregel.Flatten(m.Contigs)) != 1 {
		t.Errorf("staged graph assembled %d contigs, want 1", len(pregel.Flatten(m.Contigs)))
	}
}

func TestDumpLoadContigsRoundTrip(t *testing.T) {
	contigs := [][]ContigRec{
		{mkContig(dbg.ContigID(0, 1), "ACGTTGCAAGCT", 20, 100, 200)},
		{mkContig(dbg.ContigID(1, 1), "TTGGCCAATTGG", 5, 100, dbg.NullID)},
	}
	store, err := shardio.Open(filepath.Join(t.TempDir(), "ctg"))
	if err != nil {
		t.Fatal(err)
	}
	if err := DumpContigs(contigs, store); err != nil {
		t.Fatal(err)
	}
	got, err := LoadContigs(store)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || len(got[0]) != 1 || len(got[1]) != 1 {
		t.Fatalf("shape: %v", got)
	}
	for w := range contigs {
		if got[w][0].ID != contigs[w][0].ID {
			t.Errorf("worker %d ID mismatch", w)
		}
		if !got[w][0].Node.Seq.Equal(contigs[w][0].Node.Seq) {
			t.Errorf("worker %d sequence mismatch", w)
		}
	}
}

func TestLoadContigsRejectsNonContigRecords(t *testing.T) {
	store, err := shardio.Open(filepath.Join(t.TempDir(), "bad"))
	if err != nil {
		t.Fatal(err)
	}
	n := dbg.Node{Kind: dbg.KindKmer}
	if err := store.WriteShards([][]string{{dbg.MarshalNodeRecord(42, &n)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadContigs(store); err == nil {
		t.Fatal("k-mer record accepted as contig")
	}
}
