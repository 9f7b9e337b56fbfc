package core

import (
	"testing"

	"ppaassembler/internal/dbg"
	"ppaassembler/internal/dna"
	"ppaassembler/internal/pregel"
)

// splitGraph builds a hub with a dominant out-edge (cov 20) and a weak
// parallel out-edge (cov given), plus one in-edge.
func splitGraph(weakCov uint32) (*Graph, pregel.VertexID, pregel.VertexID) {
	g := pregel.NewGraph[VData, Msg](pregel.Config{Workers: 2})
	hub := pregel.VertexID(dna.ParseKmer("ACGTA"))
	strong := pregel.VertexID(dna.ParseKmer("CCCGG"))
	weak := pregel.VertexID(dna.ParseKmer("TTTAA"))
	in := pregel.VertexID(dna.ParseKmer("GGGTT"))
	g.AddVertex(hub, VData{Node: dbg.NewNode(0, dbg.KindKmer, dna.ParseSeq("ACGTA"), 0, []dbg.Adj{
		{Nbr: in, In: true, Cov: 20, NbrLen: 5},
		{Nbr: strong, In: false, Cov: 20, NbrLen: 5},
		{Nbr: weak, In: false, Cov: weakCov, NbrLen: 5},
	})})
	for _, v := range []struct {
		id pregel.VertexID
		in bool
	}{{strong, true}, {weak, true}, {in, false}} {
		g.AddVertex(v.id, VData{Node: dbg.NewNode(0, dbg.KindKmer, dna.ParseSeq("AAAAA"), 0, []dbg.Adj{{Nbr: hub, In: v.in, Cov: 20, NbrLen: 5}})})
	}
	return g, hub, weak
}

func TestSplitBranchesCutsDominatedEdge(t *testing.T) {
	g, hub, weak := splitGraph(2) // 2*5 <= 20: dominated
	res, err := SplitBranches(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.EdgesCut != 1 {
		t.Fatalf("edges cut = %d, want 1", res.EdgesCut)
	}
	h, _ := g.Value(hub)
	if h.Node.Type() != dbg.TypeOneOne {
		t.Errorf("hub type = %v after split, want <1-1>", h.Node.Type())
	}
	w, _ := g.Value(weak)
	if w.Node.RealDegree() != 0 {
		t.Error("weak neighbor still holds the reciprocal edge")
	}
}

func TestSplitBranchesKeepsBalancedEdges(t *testing.T) {
	g, hub, _ := splitGraph(10) // 10*5 > 20: not dominated
	res, err := SplitBranches(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.EdgesCut != 0 {
		t.Errorf("edges cut = %d, want 0", res.EdgesCut)
	}
	h, _ := g.Value(hub)
	if h.Node.RealDegree() != 3 {
		t.Errorf("hub degree = %d, want 3", h.Node.RealDegree())
	}
}

func TestSplitBranchesRejectsBadRatio(t *testing.T) {
	g, _, _ := splitGraph(2)
	if _, err := SplitBranches(g, 1); err == nil {
		t.Error("ratio 1 accepted")
	}
}

func TestFilterBubblesMinArmCov(t *testing.T) {
	a, b := pregel.VertexID(100), pregel.VertexID(200)
	// The weak arm is NOT similar to the strong one (edit distance well
	// above threshold), so only the coverage rule can prune it.
	strong := mkContig(dbg.ContigID(0, 1), "ACGTTGCAAGCT", 20, a, b)
	weak := mkContig(dbg.ContigID(0, 2), "TGCACCGGTATA", 1, a, b)
	res, err := FilterBubbles(pregel.NewSimClock(pregel.DefaultCost()), 1,
		[][]ContigRec{{strong, weak}}, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pruned != 1 {
		t.Fatalf("pruned = %d, want 1 (coverage rule)", res.Pruned)
	}
	kept := pregel.Flatten(res.Contigs)
	if len(kept) != 1 || kept[0].ID != strong.ID {
		t.Errorf("wrong survivor")
	}
	// Without the coverage rule the weak arm survives.
	res2, err := FilterBubbles(pregel.NewSimClock(pregel.DefaultCost()), 1,
		[][]ContigRec{{strong, weak}}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Pruned != 0 {
		t.Errorf("pruned = %d without coverage rule, want 0", res2.Pruned)
	}
}

func TestAssembleWithExtensions(t *testing.T) {
	// The optional operations must compose with the stock pipeline and
	// keep (or improve) the result on erroneous reads.
	r := seededRand(61)
	genome := randomCleanGenome(r, 400, 11)
	var reads []string
	for i := 0; i < 3; i++ {
		reads = append(reads, readsFromGenome(genome, 80, 40)...)
	}
	bad := []byte(genome[100:180])
	bad[40] ^= 1 // one substitution (flips the base's low bit)
	reads = append(reads, string(bad))

	opt := testOpts(3, 11, LabelerLR)
	opt.BranchSplitRatio = 4
	opt.BubbleMinCov = 2
	res := assemble(t, reads, opt)
	if len(res.Contigs) != 1 {
		t.Fatalf("contigs = %d, want 1", len(res.Contigs))
	}
	if !seqOrRC(res.Contigs[0].Node.Seq, genome) {
		t.Error("extended pipeline failed to reconstruct the genome")
	}
}
