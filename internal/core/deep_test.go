package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ppaassembler/internal/dbg"
	"ppaassembler/internal/dna"
	"ppaassembler/internal/pregel"
)

// chainGraph builds hub -> s1 -> s2 -> ... -> sN (a dangling chain of
// contig segments relayed through ⟨1-1⟩ nodes) hanging off an ambiguous
// hub that also has two long arms.
func chainGraph(t *testing.T, segLens []int) (*Graph, pregel.VertexID, []pregel.VertexID) {
	t.Helper()
	g := pregel.NewGraph[VData, Msg](pregel.Config{Workers: 3})
	hub := pregel.VertexID(dna.ParseKmer("ACGTA"))
	arm1 := addLongArm(g, dbg.ContigID(0, 91), hub, true)
	arm2 := addLongArm(g, dbg.ContigID(0, 92), hub, false)

	var ids []pregel.VertexID
	prev := hub
	for i, l := range segLens {
		id := dbg.ContigID(1, uint32(i+1))
		ids = append(ids, id)
		node := dbg.NewNode(0, dbg.KindContig, dna.ParseSeq(strings.Repeat("A", l)), 1, []dbg.Adj{
			{Nbr: prev, In: true, PSelf: dbg.L, PNbr: dbg.L, Cov: 1, NbrLen: 5},
			{Nbr: dbg.NullID, In: false, PSelf: dbg.L},
		})
		if i < len(segLens)-1 {
			node.Adj[1] = dbg.Adj{Nbr: dbg.ContigID(1, uint32(i+2)), In: false, PSelf: dbg.L, PNbr: dbg.L, Cov: 1, NbrLen: int32(segLens[i+1])}
		}
		g.AddVertex(id, VData{Node: node})
		prev = id
	}
	g.AddVertex(hub, VData{Node: dbg.NewNode(0, dbg.KindKmer, dna.ParseSeq("ACGTA"), 0, []dbg.Adj{
		arm1,
		arm2,
		{Nbr: ids[0], In: false, PSelf: dbg.L, PNbr: dbg.L, Cov: 1, NbrLen: int32(segLens[0])},
	})})
	return g, hub, ids
}

func TestRemoveTipsMultiRelayChain(t *testing.T) {
	// Chain of three segments (10+10+10 bp, overlaps 4): total dangling
	// length 10 + 6 + 6 = 22 <= 30, so the whole chain must go; the
	// REQUEST is relayed twice before terminating at the hub.
	g, hub, ids := chainGraph(t, []int{10, 10, 10})
	res, err := RemoveTips(g, 5, 30)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemovedVertices != 3 {
		t.Fatalf("removed %d vertices, want 3", res.RemovedVertices)
	}
	for _, id := range ids {
		if _, ok := g.Value(id); ok {
			t.Errorf("chain segment %x survived", id)
		}
	}
	h, ok := g.Value(hub)
	if !ok {
		t.Fatal("hub deleted")
	}
	if h.Node.RealDegree() != 2 {
		t.Errorf("hub degree = %d, want 2", h.Node.RealDegree())
	}
}

func TestRemoveTipsChainJustOverThreshold(t *testing.T) {
	// Same chain with a threshold one base short of the cumulative
	// length: nothing may be removed.
	g, _, ids := chainGraph(t, []int{10, 10, 10})
	res, err := RemoveTips(g, 5, 21)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemovedVertices != 0 {
		t.Fatalf("removed %d vertices at threshold-1, want 0", res.RemovedVertices)
	}
	for _, id := range ids {
		if _, ok := g.Value(id); !ok {
			t.Errorf("segment %x removed below threshold", id)
		}
	}
}

func TestAssembleMaxK(t *testing.T) {
	// k = 31 exercises the full 62-bit ID width end to end.
	r := rand.New(rand.NewSource(91))
	genome := randomCleanGenome(r, 600, 31)
	reads := readsFromGenome(genome, 80, 30)
	res := assemble(t, reads, testOpts(3, 31, LabelerLR))
	if len(res.Contigs) != 1 || !seqOrRC(res.Contigs[0].Node.Seq, genome) {
		t.Fatalf("k=31 assembly failed: %d contigs", len(res.Contigs))
	}
}

func TestPropAssembledContigsAreSubstrings(t *testing.T) {
	// For any error-free read set, every assembled contig must be an
	// exact substring of the genome (on either strand) — the no-
	// misassembly invariant of the pipeline.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 11
		a := randomCleanGenome(r, 100+r.Intn(200), k)
		b := randomCleanGenome(r, 30+r.Intn(30), k)
		genome := a + b + a[:50+r.Intn(40)] + b // repeats allowed
		reads := readsFromGenome(genome, 50, 10+r.Intn(20))
		opt := testOpts(1+r.Intn(4), k, LabelerLR)
		res, err := Assemble(pregel.ShardSlice(reads, opt.Workers), opt)
		if err != nil {
			return false
		}
		double := genome + "|" + dna.ParseSeq(genome).ReverseComplement().String()
		for _, c := range res.Contigs {
			if !strings.Contains(double, c.Node.Seq.String()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestAssembleParallelEngineMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(92))
	genome := randomCleanGenome(r, 300, 11)
	reads := readsFromGenome(genome, 50, 20)
	reads = append(reads, genome[40:90]+"A") // one error
	seq, par := testOpts(4, 11, LabelerLR), testOpts(4, 11, LabelerLR)
	seq.Parallel, par.Parallel = false, true
	sres := assemble(t, reads, seq)
	pres := assemble(t, reads, par)
	a, b := contigSeqSet(sres), contigSeqSet(pres)
	if len(a) != len(b) {
		t.Fatalf("parallel engine: %d contigs vs %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("parallel engine contig %d differs", i)
		}
	}
}
