package scaffold

import (
	"strings"
	"testing"

	"ppaassembler/internal/dna"
	"ppaassembler/internal/genome"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/readsim"
)

func testGenome(t *testing.T, n int, seed int64) dna.Seq { return testGenomeTB(t, n, seed) }

func testGenomeTB(t testing.TB, n int, seed int64) dna.Seq {
	t.Helper()
	g, err := genome.Generate(genome.Spec{Name: "t", Length: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func simPairs(t *testing.T, ref dna.Seq, readLen int, cov, mean, sd float64, seed int64) []Pair {
	return simPairsTB(t, ref, readLen, cov, mean, sd, seed)
}

func simPairsTB(t testing.TB, ref dna.Seq, readLen int, cov, mean, sd float64, seed int64) []Pair {
	t.Helper()
	sim, err := readsim.SimulatePairs(ref, readsim.PairProfile{
		Profile:    readsim.Profile{ReadLen: readLen, Coverage: cov, Seed: seed},
		InsertMean: mean, InsertSD: sd,
	})
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]Pair, len(sim))
	for i, p := range sim {
		pairs[i] = Pair{R1: p.R1, R2: p.R2}
	}
	return pairs
}

func TestPairUp(t *testing.T) {
	pairs, err := PairUp([]string{"AA", "CC", "GG", "TT"})
	if err != nil || len(pairs) != 2 || pairs[0].R2 != "CC" || pairs[1].R1 != "GG" {
		t.Fatalf("pairs = %v, err = %v", pairs, err)
	}
	if _, err := PairUp([]string{"AA", "CC", "GG"}); err == nil {
		t.Error("odd read count accepted")
	}
}

func TestPlaceMate(t *testing.T) {
	ref := testGenome(t, 2000, 11)
	contigs := FromSeqs([]dna.Seq{ref})
	ix := mustBuildIndex(t, contigs, []bool{true}, 21)
	var votes []vote

	fwd := ref.Slice(300, 380).String()
	p, ok := ix.place(fwd, &votes)
	if !ok || !p.fwd || p.pos != 300 || p.contig != 0 {
		t.Errorf("forward placement = %+v ok=%v, want pos 300 fwd", p, ok)
	}
	rev := ref.Slice(500, 580).ReverseComplement().String()
	p, ok = ix.place(rev, &votes)
	if !ok || p.fwd || p.pos != 500 {
		t.Errorf("reverse placement = %+v ok=%v, want pos 500 rev", p, ok)
	}
	// A read with one error still places by majority vote.
	mut := []byte(fwd)
	mut[40] = "ACGT"[(strings.IndexByte("ACGT", mut[40])+1)%4]
	p, ok = ix.place(string(mut), &votes)
	if !ok || p.pos != 300 {
		t.Errorf("mutated placement = %+v ok=%v", p, ok)
	}
	if _, ok := ix.place("ACGTACGTACGT", &votes); ok {
		t.Error("read shorter than the seed placed")
	}
}

func TestPlaceMateRepeatAmbiguity(t *testing.T) {
	ref := testGenome(t, 1000, 12)
	// Two contigs sharing an identical 200 bp block.
	block := ref.Slice(100, 300)
	c1 := ref.Slice(0, 500)
	c2 := ref.Slice(500, 800).Concat(block)
	contigs := FromSeqs([]dna.Seq{c1, c2})
	ix := mustBuildIndex(t, contigs, []bool{true, true}, 21)
	var votes []vote
	if _, ok := ix.place(block.Slice(50, 150).String(), &votes); ok {
		t.Error("read from a two-copy repeat placed uniquely")
	}
	if p, ok := ix.place(ref.Slice(350, 450).String(), &votes); !ok || p.contig != 0 {
		t.Errorf("unique read misplaced: %+v ok=%v", p, ok)
	}
}

func TestEndpointGeometry(t *testing.T) {
	if e, d := endpoint(placement{pos: 100, fwd: true}, 80, 500); e != R || d != 400 {
		t.Errorf("forward endpoint = %v %d, want R 400", e, d)
	}
	if e, d := endpoint(placement{pos: 100, fwd: false}, 80, 500); e != L || d != 180 {
		t.Errorf("reverse endpoint = %v %d, want L 180", e, d)
	}
}

// TestBuildJoinsTwoContigs is the subsystem's core scenario: two contigs cut
// from one genome with a 200 bp gap must be joined forward-forward, in
// order, with a gap estimate near 200, using an insert size estimated from
// the data.
func TestBuildJoinsTwoContigs(t *testing.T) {
	ref := testGenome(t, 6000, 21)
	contigs := FromSeqs([]dna.Seq{ref.Slice(0, 2500), ref.Slice(2700, 5500)})
	pairs := simPairs(t, ref, 80, 20, 600, 60, 22)

	res, err := Build(contigs, pairs, Options{
		Workers: 3, SeedLen: 21, MinContigLen: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scaffolds) != 1 {
		t.Fatalf("scaffolds = %d, want 1 (%+v)", len(res.Scaffolds), res.Scaffolds)
	}
	s := res.Scaffolds[0]
	if s.Len() != 2 || s.Contigs[0] != 0 || s.Contigs[1] != 1 {
		t.Fatalf("scaffold members = %v", s.Contigs)
	}
	if s.Flip[0] || s.Flip[1] {
		t.Errorf("flips = %v, want forward-forward", s.Flip)
	}
	if g := s.Gaps[0]; g < 200-120 || g > 200+120 {
		t.Errorf("gap = %d, want 200 +- 2 s.d.", g)
	}
	if res.InsertMean < 560 || res.InsertMean > 640 {
		t.Errorf("estimated insert mean = %.1f, want ~600", res.InsertMean)
	}
	if s.Starts[0] != 0 || s.Starts[1] != 2500+s.Gaps[0] {
		t.Errorf("starts = %v with gap %d", s.Starts, s.Gaps[0])
	}
	if res.Stats.Supersteps == 0 || res.Stats.Messages == 0 {
		t.Errorf("scaffolding charged no supersteps/messages: %+v", res.Stats)
	}
	if res.SimSeconds <= 0 {
		t.Error("no simulated time charged")
	}
	if res.LinksKept != 1 {
		t.Errorf("links kept = %d, want 1", res.LinksKept)
	}
}

// TestBuildOrientsFlippedContig stores the second contig reverse-complemented
// and expects the scaffolder to flip it back.
func TestBuildOrientsFlippedContig(t *testing.T) {
	ref := testGenome(t, 6000, 31)
	left := ref.Slice(0, 2500)
	right := ref.Slice(2700, 5500)
	contigs := FromSeqs([]dna.Seq{left, right.ReverseComplement()})
	pairs := simPairs(t, ref, 80, 20, 600, 60, 32)

	res, err := Build(contigs, pairs, Options{
		Workers: 2, SeedLen: 21, MinContigLen: 100, InsertMean: 600, InsertSD: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scaffolds) != 1 || res.Scaffolds[0].Len() != 2 {
		t.Fatalf("scaffolds = %+v", res.Scaffolds)
	}
	s := res.Scaffolds[0]
	if s.Flip[0] != false || s.Flip[1] != true {
		t.Fatalf("flips = %v, want [false true]", s.Flip)
	}
	recs := Records(contigs, res.Scaffolds)
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	if !strings.HasPrefix(recs[0].Seq, left.String()) {
		t.Error("rendered scaffold does not start with the left contig")
	}
	if !strings.HasSuffix(recs[0].Seq, right.String()) {
		t.Error("rendered scaffold does not end with the re-oriented right contig")
	}
	if !strings.Contains(recs[0].Seq, "N") {
		t.Error("rendered scaffold has no gap Ns")
	}
}

// TestBuildThreeContigChain checks ordering and scaffold coordinates over a
// longer chain, with deterministic repeated runs.
func TestBuildThreeContigChain(t *testing.T) {
	ref := testGenome(t, 9000, 41)
	cuts := [][2]int{{0, 2400}, {2600, 5200}, {5400, 8600}}
	var seqs []dna.Seq
	for _, c := range cuts {
		seqs = append(seqs, ref.Slice(c[0], c[1]))
	}
	pairs := simPairs(t, ref, 80, 25, 600, 50, 42)

	var prev *Result
	for i := 0; i < 2; i++ {
		res, err := Build(FromSeqs(seqs), pairs, Options{
			Workers: 4, SeedLen: 21, MinContigLen: 100, InsertMean: 600, InsertSD: 50,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Scaffolds) != 1 {
			t.Fatalf("scaffolds = %d, want 1", len(res.Scaffolds))
		}
		s := res.Scaffolds[0]
		if s.Len() != 3 || s.Contigs[0] != 0 || s.Contigs[1] != 1 || s.Contigs[2] != 2 {
			t.Fatalf("chain = %v", s.Contigs)
		}
		for j := 1; j < 3; j++ {
			wantStart := s.Starts[j-1] + seqs[s.Contigs[j-1]].Len() + s.Gaps[j-1]
			if s.Starts[j] != wantStart {
				t.Errorf("start[%d] = %d, want %d (coordinates are not the running sum of lengths and gaps)", j, s.Starts[j], wantStart)
			}
		}
		if prev != nil {
			a, b := prev.Scaffolds[0], s
			for j := range a.Contigs {
				if a.Contigs[j] != b.Contigs[j] || a.Flip[j] != b.Flip[j] || a.Starts[j] != b.Starts[j] {
					t.Fatal("scaffolding is not deterministic across runs")
				}
			}
		}
		prev = res
	}
}

// TestBuildExcludesShortRepeatContig reproduces the repeat situation: a
// collapsed repeat contig sits between two flanks in two genomic copies.
// The short repeat contig must be excluded, and the flanks joined across it
// with a gap close to the repeat length.
func TestBuildExcludesShortRepeatContig(t *testing.T) {
	base := testGenome(t, 8200, 51)
	rep := testGenome(t, 300, 52)
	// Genome: f0 (2000) + rep + f1 (2500) + rep + f2 (2500).
	var b dna.Builder
	f0, f1, f2 := base.Slice(0, 2000), base.Slice(2000, 4500), base.Slice(4500, 7000)
	for _, s := range []dna.Seq{f0, rep, f1, rep, f2} {
		b.AppendSeq(s)
	}
	ref := b.Seq()
	contigs := FromSeqs([]dna.Seq{f0, f1, f2, rep})
	pairs := simPairs(t, ref, 80, 25, 700, 60, 53)

	res, err := Build(contigs, pairs, Options{
		Workers: 3, SeedLen: 21, MinContigLen: 500, InsertMean: 700, InsertSD: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Excluded != 1 {
		t.Errorf("excluded = %d, want 1 (the repeat contig)", res.Excluded)
	}
	var chain *Scaffold
	for i := range res.Scaffolds {
		if res.Scaffolds[i].Len() > 1 {
			if chain != nil {
				t.Fatalf("multiple multi-contig scaffolds: %+v", res.Scaffolds)
			}
			chain = &res.Scaffolds[i]
		}
	}
	if chain == nil {
		t.Fatalf("no multi-contig scaffold built: %+v", res.Scaffolds)
	}
	if chain.Len() != 3 || chain.Contigs[0] != 0 || chain.Contigs[1] != 1 || chain.Contigs[2] != 2 {
		t.Fatalf("chain = %v, want [0 1 2]", chain.Contigs)
	}
	for _, g := range chain.Gaps {
		if g < 300-120 || g > 300+120 {
			t.Errorf("gap = %d, want 300 +- 2 s.d.", g)
		}
	}
}

func TestFilterLinksAmbiguityHandshake(t *testing.T) {
	cfg := pregel.Config{Workers: 2}
	clock := pregel.NewSimClock(pregel.CostModel{})
	g := pregel.NewGraph[SVertex, SMsg](cfg)
	g.UseClock(clock)
	// Vertex 1's L end attracts two strong links (from 2 and 3); 2 and 3
	// each see only their own link. Everything must be dropped. Vertices 4-5
	// share a single reciprocal link and must keep it; the weak 4-6 link is
	// below MinSupport and must not interfere.
	g.AddVertex(1, SVertex{Len: 100, Cand: []Link{
		{Nbr: 2, SelfEnd: L, NbrEnd: R, Weight: 5},
		{Nbr: 3, SelfEnd: L, NbrEnd: R, Weight: 5},
	}})
	g.AddVertex(2, SVertex{Len: 100, Cand: []Link{{Nbr: 1, SelfEnd: R, NbrEnd: L, Weight: 5}}})
	g.AddVertex(3, SVertex{Len: 100, Cand: []Link{{Nbr: 1, SelfEnd: R, NbrEnd: L, Weight: 5}}})
	g.AddVertex(4, SVertex{Len: 100, Cand: []Link{
		{Nbr: 5, SelfEnd: R, NbrEnd: L, Weight: 7},
		{Nbr: 6, SelfEnd: R, NbrEnd: L, Weight: 2},
	}})
	g.AddVertex(5, SVertex{Len: 100, Cand: []Link{{Nbr: 4, SelfEnd: L, NbrEnd: R, Weight: 7}}})
	g.AddVertex(6, SVertex{Len: 100, Cand: nil})
	if _, err := filterLinks(g, 3); err != nil {
		t.Fatal(err)
	}
	want := map[pregel.VertexID][2]bool{
		1: {false, false}, 2: {false, false}, 3: {false, false},
		4: {false, true}, 5: {true, false}, 6: {false, false},
	}
	g.ForEach(func(id pregel.VertexID, v *SVertex) {
		if v.Has != want[id] {
			t.Errorf("vertex %d kept = %v, want %v", id, v.Has, want[id])
		}
	})
}

func TestCyclicChainFallsBackToSingletons(t *testing.T) {
	cfg := pregel.Config{Workers: 2}
	clock := pregel.NewSimClock(pregel.CostModel{})
	g := pregel.NewGraph[SVertex, SMsg](cfg)
	g.UseClock(clock)
	// A 3-cycle of kept links (as if filtering had kept them all).
	ids := []pregel.VertexID{1, 2, 3}
	for i, id := range ids {
		next := ids[(i+1)%3]
		prev := ids[(i+2)%3]
		v := SVertex{Len: 100}
		v.Keep[R] = Link{Nbr: next, SelfEnd: R, NbrEnd: L, Weight: 5}
		v.Keep[L] = Link{Nbr: prev, SelfEnd: L, NbrEnd: R, Weight: 5}
		v.Has = [2]bool{true, true}
		g.AddVertex(id, v)
	}
	if _, err := orderChains(g); err != nil {
		t.Fatal(err)
	}
	contigs := []Contig{{ID: 1, Seq: dna.ParseSeq("ACGT")}, {ID: 2, Seq: dna.ParseSeq("ACGT")}, {ID: 3, Seq: dna.ParseSeq("ACGT")}}
	res := &Result{Stats: &pregel.Stats{}}
	if err := collect(g, contigs, []bool{true, true, true}, res); err != nil {
		t.Fatal(err)
	}
	if res.CycleContigs != 3 || len(res.Scaffolds) != 3 {
		t.Errorf("cycle contigs = %d, scaffolds = %d, want 3 singletons", res.CycleContigs, len(res.Scaffolds))
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	contigs := []Contig{{ID: 1, Seq: dna.ParseSeq("ACGTACGT")}, {ID: 1, Seq: dna.ParseSeq("TTTTAAAA")}}
	if _, err := Build(contigs, nil, Options{}); err == nil {
		t.Error("duplicate contig IDs accepted")
	}
	if _, err := Build(FromSeqs([]dna.Seq{dna.ParseSeq("ACGT")}), nil, Options{SeedLen: 33}); err == nil {
		t.Error("oversized seed accepted")
	}
	// No pairs and no insert mean: nothing to estimate from.
	if _, err := Build(FromSeqs([]dna.Seq{testGenome(t, 1000, 61)}), nil, Options{MinContigLen: 100}); err == nil {
		t.Error("missing insert size accepted")
	}
}
