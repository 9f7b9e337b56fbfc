package core

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ppaassembler/internal/dbg"
	"ppaassembler/internal/dna"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/shardio"
)

// itemsOf lists n's items in order.
func itemsOf(n *dbg.Node) []dbg.Adj {
	var out []dbg.Adj
	for _, a := range n.Items() {
		out = append(out, a)
	}
	return out
}

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
		if !v2.Node.Oriented(dbg.L).Equal(v.Node.Oriented(dbg.L)) || !slices.Equal(itemsOf(&v2.Node), itemsOf(&v.Node)) {
			t.Fatalf("vertex %x node differs", id)
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

// TestStagedDerivedKmersStayDerived: a staged node reloads in the form it
// was dumped in. Three reads through one 9-mer give it six items, more
// than a derived k-mer holds, so the graph has an explicit k-mer next to
// derived ones; after a dump from 3 workers and a load onto 5, a node is
// derived exactly when it was, and reads the same.
func TestStagedDerivedKmersStayDerived(t *testing.T) {
	const hub = "ACCAGTTGA"
	reads := []string{randomCleanGenome(seededRand(72), 80, 9), "C" + hub + "A", "G" + hub + "C", "T" + hub + "G"}
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
	derived := 0
	g.ForEach(func(id pregel.VertexID, v *VData) {
		v2, ok := g2.Value(id)
		if !ok {
			t.Fatalf("vertex %x lost", id)
		}
		if (v2.Node.Explicit == nil) != (v.Node.Explicit == nil) {
			t.Fatalf("vertex %x: derived %v before the stage, %v after", id, v.Node.Explicit == nil, v2.Node.Explicit == nil)
		}
		if v.Node.Explicit == nil {
			derived++
		}
		if !v2.Node.Oriented(dbg.L).Equal(v.Node.Oriented(dbg.L)) || !slices.Equal(itemsOf(&v2.Node), itemsOf(&v.Node)) || v2.Node.Cov != v.Node.Cov {
			t.Fatalf("vertex %x node differs", id)
		}
	})
	if derived == 0 || derived == g.VertexCount() {
		t.Fatalf("%d of %d nodes derived; the graph must hold both forms", derived, g.VertexCount())
	}
}

// stageLines writes lines to a fresh one-part store.
func stageLines(t *testing.T, lines ...string) *shardio.Store {
	t.Helper()
	store, err := shardio.Open(filepath.Join(t.TempDir(), "bad"))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.WriteShards([][]string{lines}); err != nil {
		t.Fatal(err)
	}
	return store
}

// TestLoadRefusesDamagedRecords: a damaged record fails the load instead
// of reloading as some other node. The records are hand-written: form 2
// (explicit contig), ID 1, coverage 7, the one-base sequence A, and one
// item (8-byte neighbour, flags, coverage 7, length 0).
func TestLoadRefusesDamagedRecords(t *testing.T) {
	const (
		head = "02" + "01"                      // form, ID
		seq  = "01" + "0000000000000000"        // one base, one packed word
		item = "8080808080808001" + "00" + "07" // neighbour, flags, coverage
		big  = "8580808010"                     // 2^32+5, which a uint32 cast reads as 5
	)
	good := head + "07" + seq + "01" + item + "00"
	if _, err := LoadSegments(stageLines(t, good), pregel.Config{Workers: 2}, nil); err != nil {
		t.Fatalf("intact record refused: %v", err)
	}
	bad := map[string]string{
		"empty":              "",
		"bad hex":            "zz",
		"form only":          "00",
		"unknown form":       "ff00",
		"short sequence":     "0102030405",
		"truncated":          good[:len(good)-2],
		"trailing bytes":     good + "00",
		"node coverage 2^32": head + big + seq + "01" + item + "00",
		"item coverage 2^32": head + "07" + seq + "01" + strings.TrimSuffix(item, "07") + big + "00",
	}
	for name, line := range bad {
		if _, err := LoadSegments(stageLines(t, line), pregel.Config{Workers: 2}, nil); err == nil {
			t.Errorf("%s: LoadSegments accepted %q", name, line)
		}
		if _, err := LoadContigs(stageLines(t, line)); err == nil {
			t.Errorf("%s: LoadContigs accepted %q", name, line)
		}
	}
	// An intact derived 9-mer (form 0, ID 5, coverage 1, K 9, one item of
	// coverage 3) loads as a segment but is no contig.
	kmer := "00" + "05" + "01" + "09" + "01" + "03"
	if _, err := LoadSegments(stageLines(t, kmer), pregel.Config{Workers: 2}, nil); err != nil {
		t.Fatalf("intact k-mer record refused: %v", err)
	}
	if _, err := LoadContigs(stageLines(t, kmer)); err == nil {
		t.Error("LoadContigs accepted a k-mer record")
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

// TestLoadContigsRejectsNonContigRecords: a k-mer record fails a contig
// load, under a k-mer ID or under a contig ID.
func TestLoadContigsRejectsNonContigRecords(t *testing.T) {
	for _, id := range []pregel.VertexID{42, dbg.ContigID(0, 1)} {
		n := dbg.NewNode(id, dbg.KindKmer, dna.ParseSeq("ACGTA"), 0, nil)
		if _, err := LoadContigs(stageLines(t, nodeRecord(&n))); err == nil {
			t.Errorf("k-mer record under ID %x accepted as contig", id)
		}
	}
}
