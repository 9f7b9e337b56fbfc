package core

import (
	"math/rand"
	"strings"
	"testing"

	"ppaassembler/internal/dbg"
	"ppaassembler/internal/dna"
	"ppaassembler/internal/pregel"
)

func seededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// buildSegGraph builds a labeled-ready segment graph directly from reads.
func buildSegGraph(t *testing.T, reads []string, k, workers int) *Graph {
	t.Helper()
	cfg := pregel.Config{Workers: workers}
	clock := pregel.NewSimClock(pregel.DefaultCost())
	b, err := dbg.BuildDBG(clock, cfg, pregel.ShardSlice(reads, workers), k, 0)
	if err != nil {
		t.Fatal(err)
	}
	return NewSegmentGraph(b, cfg, k)
}

func TestLabelContigsMarksAmbiguity(t *testing.T) {
	// Two reads sharing a middle segment create a branch point: the DBG
	// has ambiguous vertices, everything else is labeled.
	reads := []string{
		"AACCTTGCACGAGT",
		"TGGATTGCACGCCA",
	}
	g := buildSegGraph(t, reads, 5, 2)
	ls, err := LabelContigs(g, LabelerLR)
	if err != nil {
		t.Fatal(err)
	}
	ambig, labeled := 0, 0
	g.ForEach(func(id pregel.VertexID, v *VData) {
		if v.Ambig {
			ambig++
			if v.Labeled {
				t.Error("ambiguous vertex carries a label")
			}
		}
		if v.Labeled {
			labeled++
		}
	})
	if ambig == 0 {
		t.Error("no ambiguous vertices on a branching input")
	}
	if labeled == 0 {
		t.Error("no labeled vertices")
	}
	if ambig+labeled != g.VertexCount() {
		t.Errorf("ambig %d + labeled %d != vertices %d", ambig, labeled, g.VertexCount())
	}
	if ls.Supersteps == 0 || ls.Messages == 0 {
		t.Error("empty labeling stats")
	}
}

func TestLabelingSetsNbrAmbig(t *testing.T) {
	reads := []string{
		"AACCTTGCACGAGT",
		"TGGATTGCACGCCA",
	}
	g := buildSegGraph(t, reads, 5, 2)
	if _, err := LabelContigs(g, LabelerLR); err != nil {
		t.Fatal(err)
	}
	// Every vertex's NbrAmbig must agree with the actual type of the
	// pointed-at neighbor.
	ambigSet := map[pregel.VertexID]bool{}
	g.ForEach(func(id pregel.VertexID, v *VData) {
		if v.Ambig {
			ambigSet[id] = true
		}
	})
	g.ForEach(func(id pregel.VertexID, v *VData) {
		if v.NbrAmbig>>v.Node.Degree() != 0 {
			t.Fatalf("vertex %x: NbrAmbig %#b marks items past adj %d", id, v.NbrAmbig, v.Node.Degree())
		}
		for i, a := range v.Node.Items() {
			if a.Nbr == dbg.NullID {
				continue
			}
			if marked := v.NbrAmbig>>i&1 != 0; marked != ambigSet[a.Nbr] {
				t.Errorf("vertex %x adj %d: NbrAmbig=%v but neighbor ambig=%v",
					id, i, marked, ambigSet[a.Nbr])
			}
		}
	})
}

func TestMergeContigsGroupCount(t *testing.T) {
	// A single unambiguous path = one group = one contig. The read is
	// generated with all-distinct canonical 9-mers so no vertex is
	// ambiguous.
	r := seededRand(51)
	reads := []string{randomCleanGenome(r, 60, 9)}
	g := buildSegGraph(t, reads, 9, 3)
	if _, err := LabelContigs(g, LabelerLR); err != nil {
		t.Fatal(err)
	}
	m, err := MergeContigs(g, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	flat := pregel.Flatten(m.Contigs)
	if m.Groups != 1 || len(flat) != 1 {
		t.Fatalf("groups=%d contigs=%d, want 1/1", m.Groups, len(flat))
	}
	c := flat[0]
	if got := c.Node.Seq.String(); got != reads[0] &&
		got != dna.ParseSeq(reads[0]).ReverseComplement().String() {
		t.Errorf("contig %q does not match the read", got)
	}
	if !dbg.IsContigID(c.ID) {
		t.Errorf("contig ID %x not in contig ID space", c.ID)
	}
	// Both ends of an isolated read-path are dead.
	if c.Node.Adj[0].Nbr != dbg.NullID || c.Node.Adj[1].Nbr != dbg.NullID {
		t.Errorf("isolated contig has non-NULL ends: %+v", c.Node.Adj)
	}
}

func TestMergeContigsDropsShortDanglingGroups(t *testing.T) {
	r := seededRand(52)
	reads := []string{randomCleanGenome(r, 60, 9)}
	g := buildSegGraph(t, reads, 9, 2)
	if _, err := LabelContigs(g, LabelerLR); err != nil {
		t.Fatal(err)
	}
	m, err := MergeContigs(g, 9, 100) // tip threshold above the contig length
	if err != nil {
		t.Fatal(err)
	}
	if m.DroppedTips != 1 || len(pregel.Flatten(m.Contigs)) != 0 {
		t.Errorf("dropped=%d kept=%d, want 1/0", m.DroppedTips, len(pregel.Flatten(m.Contigs)))
	}
}

func TestMergeContigCoverageIsMinEdge(t *testing.T) {
	// Overlay coverage: the genome core appears 3x, its prefix only once,
	// so the contig's coverage equals the minimum edge coverage (1).
	r := seededRand(53)
	genome := randomCleanGenome(r, 60, 9)
	core := genome[15:]
	reads := []string{core, core, core, genome}
	g := buildSegGraph(t, reads, 9, 2)
	if _, err := LabelContigs(g, LabelerLR); err != nil {
		t.Fatal(err)
	}
	m, err := MergeContigs(g, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	flat := pregel.Flatten(m.Contigs)
	if len(flat) != 1 {
		t.Fatalf("contigs = %d, want 1", len(flat))
	}
	if flat[0].Node.Cov != 1 {
		t.Errorf("contig coverage = %d, want 1 (minimum edge)", flat[0].Node.Cov)
	}
}

// mkContig builds a contig record between two (possibly NULL) end vertices.
func mkContig(id pregel.VertexID, seq string, cov uint32, nb1, nb2 pregel.VertexID) ContigRec {
	return ContigRec{
		ID: id,
		Node: dbg.NewNode(0, dbg.KindContig, dna.ParseSeq(seq), cov, []dbg.Adj{
			{Nbr: nb1, In: true, PSelf: dbg.L, PNbr: dbg.L},
			{Nbr: nb2, In: false, PSelf: dbg.L, PNbr: dbg.L},
		}),
	}
}

func TestFilterBubblesPrunesLowCoverageArm(t *testing.T) {
	a, b := pregel.VertexID(100), pregel.VertexID(200)
	hi := mkContig(dbg.ContigID(0, 1), "ACGTTGCAAGCT", 20, a, b)
	lo := mkContig(dbg.ContigID(0, 2), "ACGTTACAAGCT", 2, a, b) // 1 substitution
	other := mkContig(dbg.ContigID(0, 3), "TTTTTGGGGGCCCCC", 9, a, dbg.NullID)
	res, err := FilterBubblesCfg(pregel.NewSimClock(pregel.DefaultCost()), pregel.MRConfig{Workers: 2, PairBytes: 64},
		[][]ContigRec{{hi, lo, other}}, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pruned != 1 {
		t.Fatalf("pruned = %d, want 1", res.Pruned)
	}
	kept := map[pregel.VertexID]bool{}
	for _, c := range pregel.Flatten(res.Contigs) {
		kept[c.ID] = true
	}
	if !kept[hi.ID] || kept[lo.ID] || !kept[other.ID] {
		t.Errorf("kept set wrong: %v", kept)
	}
}

func TestFilterBubblesKeepsDissimilarArms(t *testing.T) {
	a, b := pregel.VertexID(100), pregel.VertexID(200)
	c1 := mkContig(dbg.ContigID(0, 1), "ACGTTGCAAGCT", 20, a, b)
	c2 := mkContig(dbg.ContigID(0, 2), "TGCACCGGTATA", 2, a, b) // unrelated
	res, err := FilterBubblesCfg(pregel.NewSimClock(pregel.DefaultCost()), pregel.MRConfig{Workers: 2, PairBytes: 64},
		[][]ContigRec{{c1, c2}}, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pruned != 0 {
		t.Errorf("pruned dissimilar arms: %d", res.Pruned)
	}
}

func TestFilterBubblesOrientsArms(t *testing.T) {
	// Arm 2 is stored in the opposite direction (its in-end is the larger
	// vertex); orientation by the sorted key must reverse-complement it
	// before comparison.
	a, b := pregel.VertexID(100), pregel.VertexID(200)
	fwd := "ACGTTGCAAGCT"
	rc := dna.ParseSeq(fwd).ReverseComplement().String()
	c1 := mkContig(dbg.ContigID(0, 1), fwd, 20, a, b)
	c2 := mkContig(dbg.ContigID(0, 2), rc, 2, b, a)
	res, err := FilterBubblesCfg(pregel.NewSimClock(pregel.DefaultCost()), pregel.MRConfig{Workers: 2, PairBytes: 64},
		[][]ContigRec{{c1, c2}}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pruned != 1 {
		t.Errorf("reverse-oriented identical arm not pruned (pruned=%d)", res.Pruned)
	}
}

func TestFilterBubblesThreeArms(t *testing.T) {
	a, b := pregel.VertexID(100), pregel.VertexID(200)
	arms := []ContigRec{
		mkContig(dbg.ContigID(0, 1), "ACGTTGCAAGCT", 20, a, b),
		mkContig(dbg.ContigID(0, 2), "ACGTTACAAGCT", 5, a, b),
		mkContig(dbg.ContigID(0, 3), "ACGTTCCAAGCT", 2, a, b),
	}
	res, err := FilterBubblesCfg(pregel.NewSimClock(pregel.DefaultCost()), pregel.MRConfig{Workers: 1, PairBytes: 64},
		[][]ContigRec{arms}, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pruned != 2 {
		t.Errorf("pruned = %d, want 2 (only the highest-coverage arm survives)", res.Pruned)
	}
	kept := pregel.Flatten(res.Contigs)
	if len(kept) != 1 || kept[0].Node.Cov != 20 {
		t.Errorf("wrong survivor: %+v", kept)
	}
}

func TestLinkContigsRebuildsAdjacency(t *testing.T) {
	// Graph: one ambiguous k-mer + one contig whose in-end points at it.
	cfg := pregel.Config{Workers: 2}
	g := pregel.NewGraph[VData, Msg](cfg)
	kmerID := pregel.VertexID(dna.ParseKmer("ACGTA"))
	ctg := mkContig(dbg.ContigID(0, 1), "CGTATTTGGG", 7, kmerID, dbg.NullID)
	ctg.Node.Adj[0].PNbr = dbg.H // polarity on the k-mer's side
	ctg.Node.Adj[0].Cov = 7
	g.AddVertex(kmerID, VData{Ambig: true, Node: dbg.NewNode(0, dbg.KindKmer, dna.ParseSeq("ACGTA"), 0, nil)})
	g.AddVertex(ctg.ID, VData{Node: ctg.Node})
	if _, err := LinkContigs(g); err != nil {
		t.Fatal(err)
	}
	v, _ := g.Value(kmerID)
	if v.Node.Degree() != 1 {
		t.Fatalf("k-mer adjacency = %d items, want 1", v.Node.Degree())
	}
	item := v.Node.Adj[0]
	if item.Nbr != ctg.ID || item.In != false || item.PSelf != dbg.H || item.PNbr != dbg.L {
		t.Errorf("rebuilt item wrong: %+v", item)
	}
	if item.Cov != 7 || item.NbrLen != 10 {
		t.Errorf("item cov/len = %d/%d", item.Cov, item.NbrLen)
	}
}

// addLongArm attaches a 200 bp contig between the hub and a dead end, so
// the hub's non-tip branches are well above any tip threshold.
func addLongArm(g *Graph, id pregel.VertexID, hub pregel.VertexID, in bool) dbg.Adj {
	seq := strings.Repeat("ACGT", 50)
	node := dbg.NewNode(0, dbg.KindContig, dna.ParseSeq(seq), 9, []dbg.Adj{
		{Nbr: hub, In: true, PSelf: dbg.L, PNbr: dbg.L, Cov: 9, NbrLen: 5},
		{Nbr: dbg.NullID, In: false, PSelf: dbg.L},
	})
	g.AddVertex(id, VData{Node: node})
	return dbg.Adj{Nbr: id, In: in, PSelf: dbg.L, PNbr: dbg.L, Cov: 9, NbrLen: int32(len(seq))}
}

func TestRemoveTipsDeletesShortDanglingChain(t *testing.T) {
	// Ambiguous hub with three neighbors: two long contig arms and one
	// short dangling contig (a tip). After RemoveTips the tip is gone,
	// the hub lost that edge, and everything else survives.
	cfg := pregel.Config{Workers: 2}
	g := pregel.NewGraph[VData, Msg](cfg)
	hub := pregel.VertexID(dna.ParseKmer("ACGTA"))
	arm1 := addLongArm(g, dbg.ContigID(0, 11), hub, true)
	arm2 := addLongArm(g, dbg.ContigID(0, 12), hub, false)
	tip := mkContig(dbg.ContigID(0, 1), "ACGTATT", 1, hub, dbg.NullID) // 7 bp dangling
	g.AddVertex(hub, VData{Node: dbg.NewNode(0, dbg.KindKmer, dna.ParseSeq("ACGTA"), 0, []dbg.Adj{
		arm1,
		arm2,
		{Nbr: tip.ID, In: false, PSelf: dbg.L, PNbr: dbg.L, Cov: 1, NbrLen: 7},
	})})
	tipNode := tip.Node
	tipNode.Adj[0] = dbg.Adj{Nbr: hub, In: true, PSelf: dbg.L, PNbr: dbg.L, Cov: 1, NbrLen: 5}
	g.AddVertex(tip.ID, VData{Node: tipNode})

	res, err := RemoveTips(g, 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemovedVertices != 1 {
		t.Fatalf("removed %d vertices, want 1 (the tip)", res.RemovedVertices)
	}
	if _, ok := g.Value(tip.ID); ok {
		t.Error("tip contig still present")
	}
	h, ok := g.Value(hub)
	if !ok {
		t.Fatal("hub deleted")
	}
	for _, a := range h.Node.Items() {
		if a.Nbr == tip.ID {
			t.Error("hub still points at the removed tip")
		}
	}
	if h.Node.Type() != dbg.TypeOneOne {
		t.Errorf("hub type after tip removal = %v, want <1-1>", h.Node.Type())
	}
}

func TestRemoveTipsKeepsLongDanglingChain(t *testing.T) {
	// A hub whose only neighbors are long arms: a REQUEST from a short
	// probe must never delete the long contigs, and a dangling arm longer
	// than the threshold stays.
	cfg := pregel.Config{Workers: 1}
	g := pregel.NewGraph[VData, Msg](cfg)
	hub := pregel.VertexID(dna.ParseKmer("ACGTA"))
	arm1 := addLongArm(g, dbg.ContigID(0, 21), hub, true)
	arm2 := addLongArm(g, dbg.ContigID(0, 22), hub, false)
	shortTip := mkContig(dbg.ContigID(0, 23), "ACGTATT", 1, hub, dbg.NullID)
	g.AddVertex(hub, VData{Node: dbg.NewNode(0, dbg.KindKmer, dna.ParseSeq("ACGTA"), 0, []dbg.Adj{
		arm1,
		arm2,
		{Nbr: shortTip.ID, In: false, PSelf: dbg.L, PNbr: dbg.L, Cov: 1, NbrLen: 7},
	})})
	stNode := shortTip.Node
	stNode.Adj[0] = dbg.Adj{Nbr: hub, In: true, PSelf: dbg.L, PNbr: dbg.L, Cov: 1, NbrLen: 5}
	g.AddVertex(shortTip.ID, VData{Node: stNode})

	if _, err := RemoveTips(g, 5, 20); err != nil {
		t.Fatal(err)
	}
	for _, id := range []pregel.VertexID{dbg.ContigID(0, 21), dbg.ContigID(0, 22)} {
		if _, ok := g.Value(id); !ok {
			t.Errorf("long arm %x wrongly removed", id)
		}
	}
	if _, ok := g.Value(shortTip.ID); ok {
		t.Error("short tip survived")
	}
	if _, ok := g.Value(hub); !ok {
		t.Error("hub deleted despite long arms")
	}
}

func TestRemoveTipsIsolatedShortSegment(t *testing.T) {
	cfg := pregel.Config{Workers: 1}
	g := pregel.NewGraph[VData, Msg](cfg)
	iso := mkContig(dbg.ContigID(0, 1), "ACGTACGT", 1, dbg.NullID, dbg.NullID)
	g.AddVertex(iso.ID, VData{Node: iso.Node})
	res, err := RemoveTips(g, 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemovedVertices != 1 || g.VertexCount() != 0 {
		t.Errorf("isolated short segment not removed: %+v", res)
	}
	// A long isolated segment survives.
	g2 := pregel.NewGraph[VData, Msg](cfg)
	iso2 := mkContig(dbg.ContigID(0, 2), strings.Repeat("ACGT", 20), 5, dbg.NullID, dbg.NullID)
	g2.AddVertex(iso2.ID, VData{Node: iso2.Node})
	if _, err := RemoveTips(g2, 5, 20); err != nil {
		t.Fatal(err)
	}
	if g2.VertexCount() != 1 {
		t.Error("long isolated segment removed")
	}
}
