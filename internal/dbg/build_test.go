package dbg

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ppaassembler/internal/dna"
	"ppaassembler/internal/pregel"
)

// eachKPlus1 slides a (k+1)-wide window over every maximal ACGT run of the
// read (runs shorter than k+1 yield nothing; 'N' and other letters break
// runs). It is the window loop phase (i) ran before its windows rolled
// canonically, kept here as a reference for the tests that count windows.
func eachKPlus1(read string, k int, fn func(dna.Kmer)) {
	k1 := k + 1
	var cur uint64
	run := 0
	mask := dna.KmerMask(k1)
	for i := 0; i < len(read); i++ {
		b, ok := dna.BaseFromByte(read[i])
		if !ok {
			run = 0
			cur = 0
			continue
		}
		cur = (cur<<2 | uint64(b)) & mask
		run++
		if run >= k1 {
			fn(dna.Kmer(cur))
		}
	}
}

func TestEachKPlus1(t *testing.T) {
	var got []string
	eachKPlus1("ATTGC", 3, func(m dna.Kmer) { got = append(got, m.String(4)) })
	want := []string{"ATTG", "TTGC"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("window %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestEachKPlus1SplitsAtN(t *testing.T) {
	var got []string
	eachKPlus1("ACGTNACGT", 3, func(m dna.Kmer) { got = append(got, m.String(4)) })
	want := []string{"ACGT", "ACGT"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("got %v, want %v", got, want)
	}
	got = nil
	eachKPlus1("ACGNTAG", 3, func(m dna.Kmer) { got = append(got, m.String(4)) })
	if len(got) != 0 {
		t.Errorf("short runs produced %v", got)
	}
}

func TestEdgeEndpointsMutuallyConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := []int{3, 5, 21, 31}[r.Intn(4)]
		raw := dna.Kmer(r.Uint64() & dna.KmerMask(k+1))
		e, _ := raw.Canonical(k + 1)
		srcID, srcItem, dstID, dstItem := EdgeEndpoints(K1Mer{ID: e, Cov: 7}, k)
		// Each endpoint's item must resolve to the other endpoint.
		if KmerID(srcItem.Neighbor(KmerOf(srcID), k)) != dstID {
			return false
		}
		if KmerID(dstItem.Neighbor(KmerOf(dstID), k)) != srcID {
			return false
		}
		// Both endpoint IDs must be canonical k-mers.
		if !KmerOf(srcID).IsCanonical(k) || !KmerOf(dstID).IsCanonical(k) {
			return false
		}
		// The (k+1)-mer reconstructed from the source item must be e again
		// (up to reverse complement).
		back := srcItem.KPlus1(KmerOf(srcID), k)
		c, _ := back.Canonical(k + 1)
		return c == e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEdgeEndpointsBothStrandsAgree(t *testing.T) {
	// A (k+1)-mer and its reverse complement describe the same edge, so
	// after canonicalization (which phase (i) performs) they must yield the
	// same endpoints. Figure 6's point: reads from either strand stitch.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := []int{3, 5, 21}[r.Intn(3)]
		raw := dna.Kmer(r.Uint64() & dna.KmerMask(k+1))
		c1, _ := raw.Canonical(k + 1)
		c2, _ := raw.ReverseComplement(k + 1).Canonical(k + 1)
		if c1 != c2 {
			return false
		}
		s1, _, d1, _ := EdgeEndpoints(K1Mer{ID: c1, Cov: 1}, k)
		s2, _, d2, _ := EdgeEndpoints(K1Mer{ID: c2, Cov: 1}, k)
		return s1 == s2 && d1 == d2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func buildFromReads(t *testing.T, reads []string, k int, theta uint32, workers int) *BuildResult {
	t.Helper()
	cfg := pregel.Config{Workers: workers}
	res, err := BuildDBG(pregel.NewSimClock(pregel.DefaultCost()), cfg, pregel.ShardSlice(reads, workers), k, theta)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// distinctCanonicalKmers counts the distinct canonical k-mers of the reads.
func distinctCanonicalKmers(reads []string, k int) int {
	seen := map[dna.Kmer]bool{}
	for _, r := range reads {
		eachKPlus1(r, k-1, func(m dna.Kmer) { // windows of length k
			c, _ := m.Canonical(k)
			seen[c] = true
		})
	}
	return len(seen)
}

func TestBuildDBGSingleRead(t *testing.T) {
	reads := []string{"ATTGCAAGT"} // the contig of Figure 4
	res := buildFromReads(t, reads, 3, 0, 3)
	// The read has 6 windows of length 4, but TTGC and GCAA are reverse
	// complements of each other, so they canonicalize to one (k+1)-mer
	// (with coverage 2): 5 distinct records.
	if res.K1Distinct != 5 || res.K1Kept != 5 {
		t.Errorf("K1 distinct/kept = %d/%d, want 5/5", res.K1Distinct, res.K1Kept)
	}
	want := distinctCanonicalKmers(reads, 3)
	if got := res.Graph.VertexCount(); got != want {
		t.Errorf("vertices = %d, want %d", got, want)
	}
	// Every edge must be present from both endpoints with equal coverage.
	checkEdgeSymmetry(t, res, 3)
}

// checkEdgeSymmetry verifies that for every vertex item, the resolved
// neighbor exists and has a matching reciprocal item with the same coverage.
func checkEdgeSymmetry(t *testing.T, res *BuildResult, k int) {
	t.Helper()
	res.Graph.ForEach(func(id pregel.VertexID, v *KmerVertex) {
		self := KmerOf(id)
		for _, item := range v.Items() {
			nbrID := KmerID(item.Neighbor(self, k))
			nv, ok := res.Graph.Value(nbrID)
			if !ok {
				t.Errorf("vertex %s: neighbor %s missing", self.String(k), item.Neighbor(self, k).String(k))
				continue
			}
			found := false
			for _, back := range nv.Items() {
				if KmerID(back.Neighbor(KmerOf(nbrID), k)) == id && back.Cov == item.Cov &&
					back.In != item.In == (nbrID != id) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("vertex %s: no reciprocal item on %s", self.String(k), item.Neighbor(self, k).String(k))
			}
		}
	})
}

func TestBuildDBGBothStrandsMerge(t *testing.T) {
	// A read and its reverse complement must produce the identical graph
	// with doubled coverage, not a second strand's worth of vertices.
	fwd := []string{"ATTGCAAGTCCGTA"}
	both := []string{"ATTGCAAGTCCGTA", "TACGGACTTGCAAT"}
	r1 := buildFromReads(t, fwd, 5, 0, 2)
	r2 := buildFromReads(t, both, 5, 0, 2)
	if r1.Graph.VertexCount() != r2.Graph.VertexCount() {
		t.Fatalf("vertex count differs: %d vs %d", r1.Graph.VertexCount(), r2.Graph.VertexCount())
	}
	r1.Graph.ForEach(func(id pregel.VertexID, v *KmerVertex) {
		v2, ok := r2.Graph.Value(id)
		if !ok {
			t.Fatalf("vertex %x missing in both-strand graph", id)
		}
		if v.Adj != v2.Adj {
			t.Fatalf("bitmaps differ at %x", id)
		}
		for i := range v.Covs {
			if v2.Covs[i] != 2*v.Covs[i] {
				t.Errorf("coverage not doubled at %x", id)
			}
		}
	})
}

func TestBuildDBGThetaFilters(t *testing.T) {
	// One erroneous read against three agreeing ones: theta=1 must drop the
	// error branch (single-copy (k+1)-mers).
	good := "ACGGTCATCAGTT"
	bad := "ACGGTCTTCAGTT" // one substitution mid-read
	reads := []string{good, good, good, bad}
	res := buildFromReads(t, reads, 5, 1, 2)
	resAll := buildFromReads(t, reads, 5, 0, 2)
	if res.K1Kept >= resAll.K1Kept {
		t.Errorf("theta=1 kept %d of %d; expected filtering", res.K1Kept, resAll.K1Kept)
	}
	// The filtered graph must equal the graph built from good reads alone,
	// except coverage is 3 per edge.
	resGood := buildFromReads(t, []string{good, good, good}, 5, 0, 2)
	if res.Graph.VertexCount() != resGood.Graph.VertexCount() {
		t.Errorf("filtered graph has %d vertices, error-free graph %d",
			res.Graph.VertexCount(), resGood.Graph.VertexCount())
	}
}

func TestBuildDBGRejectsEvenK(t *testing.T) {
	if _, err := BuildDBG(pregel.NewSimClock(pregel.DefaultCost()), pregel.Config{Workers: 1}, [][]string{{"ACGT"}}, 4, 0); err == nil {
		t.Fatal("even k accepted")
	}
}

func TestPropBuildDBGWorkerCountInvariant(t *testing.T) {
	// The constructed graph must not depend on the number of workers.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		genome := randomGenome(r, 120)
		var reads []string
		for i := 0; i < 25; i++ {
			lo := r.Intn(len(genome) - 30)
			reads = append(reads, genome[lo:lo+30])
		}
		base := mustBuild(reads, 7, 0, 1)
		for _, w := range []int{2, 5} {
			other := mustBuild(reads, 7, 0, w)
			if base.Graph.VertexCount() != other.Graph.VertexCount() {
				return false
			}
			ok := true
			base.Graph.ForEach(func(id pregel.VertexID, v *KmerVertex) {
				ov, present := other.Graph.Value(id)
				if !present || ov.Adj != v.Adj {
					ok = false
					return
				}
				for i := range v.Covs {
					if ov.Covs[i] != v.Covs[i] {
						ok = false
						return
					}
				}
			})
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func mustBuild(reads []string, k int, theta uint32, workers int) *BuildResult {
	res, err := BuildDBG(pregel.NewSimClock(pregel.DefaultCost()), pregel.Config{Workers: workers}, pregel.ShardSlice(reads, workers), k, theta)
	if err != nil {
		panic(err)
	}
	return res
}

func randomGenome(r *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = "ACGT"[r.Intn(4)]
	}
	return string(b)
}

// kmerNodeViaItems is KmerNode as it was before it walked the bitmap itself:
// materialise Items(), grow Adj by append. Kept here as the reference.
func kmerNodeViaItems(id pregel.VertexID, v *KmerVertex, k int) Node {
	self := KmerOf(id)
	n := Node{Kind: KindKmer, Seq: self.Seq(k)}
	for i, a := range v.Items() {
		n.Adj = append(n.Adj, Adj{
			Nbr: KmerID(a.Neighbor(self, k)), In: a.In, PSelf: a.PSelf, PNbr: a.PNbr,
			Cov: a.Cov, NbrLen: int32(k),
		})
		if i == 0 || a.Cov < n.Cov {
			n.Cov = a.Cov
		}
	}
	return n
}

func TestKmerNodeConversion(t *testing.T) {
	reads := []string{"ATTGCAAGT"}
	res := buildFromReads(t, reads, 3, 0, 2)
	res.Graph.ForEach(func(id pregel.VertexID, v *KmerVertex) {
		n := KmerNode(id, v, 3)
		if n.Kind != KindKmer || n.Seq.Len() != 3 {
			t.Fatalf("bad node %+v", n)
		}
		if len(n.Adj) != v.Degree() {
			t.Errorf("node adj %d != vertex degree %d", len(n.Adj), v.Degree())
		}
		for i, a := range n.Adj {
			if a.NbrLen != 3 {
				t.Errorf("NbrLen = %d", a.NbrLen)
			}
			if a.Cov != v.Items()[i].Cov {
				t.Errorf("cov mismatch")
			}
		}
	})

	// Every bitmap, not only the ones a small build produces: random
	// vertices of every degree 0..32 with distinct coverages (so a wrong
	// rank or a wrong minimum shows), against the Items()-based reference.
	r := rand.New(rand.NewSource(3))
	for _, k := range []int{3, 21, 31} {
		for trial := 0; trial < 400; trial++ {
			var v KmerVertex
			switch trial {
			case 0: // isolated: no items, Adj stays nil
			case 1:
				v.Adj = ^Bitmap32(0)
			default:
				v.Adj = Bitmap32(r.Uint32() & r.Uint32())
			}
			for i := 0; i < v.Adj.Count(); i++ {
				v.Covs = append(v.Covs, 1+uint32(r.Intn(1000)))
			}
			self, _ := dna.Kmer(r.Uint64() & dna.KmerMask(k)).Canonical(k)
			got, want := KmerNode(KmerID(self), &v, k), kmerNodeViaItems(KmerID(self), &v, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d bitmap %032b:\n got %+v\nwant %+v", k, v.Adj, got, want)
			}
		}
	}

	// Alloc fence: the sequence word and the exactly-sized Adj, nothing else.
	v := KmerVertex{Adj: 0b1000_0100_0010_0001_0000_0000_1000_0001, Covs: []uint32{9, 8, 7, 6, 5, 4}}
	id := KmerID(dna.ParseKmer("ACGTACGTACGTACGTACGTA"))
	if allocs := testing.AllocsPerRun(100, func() { nodeSink = KmerNode(id, &v, 21) }); allocs > 2 {
		t.Errorf("KmerNode allocates %.0f times per node, want <= 2", allocs)
	}
}

var nodeSink Node

func TestNodeTypeClassification(t *testing.T) {
	mk := func(adj ...Adj) *Node { return &Node{Kind: KindKmer, Seq: dna.ParseSeq("ACA"), Adj: adj} }
	inL := Adj{Nbr: 1, In: true, PSelf: L, PNbr: L}
	outL := Adj{Nbr: 2, In: false, PSelf: L, PNbr: L}
	if got := mk().Type(); got != TypeIsolated {
		t.Errorf("no adj: %v", got)
	}
	if got := mk(inL).Type(); got != TypeOne {
		t.Errorf("one adj: %v", got)
	}
	if got := mk(inL, outL).Type(); got != TypeOneOne {
		t.Errorf("in+out: %v", got)
	}
	// Two edges that are both incoming once normalized: ambiguous.
	in2 := Adj{Nbr: 3, In: true, PSelf: L, PNbr: H}
	if got := mk(inL, in2).Type(); got != TypeManyAny {
		t.Errorf("in+in: %v", got)
	}
	// An H-side out-edge equals an L-side in-edge by Property 1: so inL
	// plus (out with PSelf=H) is still one-in-one-out ... of the same
	// direction after normalization -> ambiguous.
	outH := Adj{Nbr: 4, In: false, PSelf: H, PNbr: L}
	if got := mk(inL, outH).Type(); got != TypeManyAny {
		t.Errorf("inL+outH: %v (outH normalizes to inL-direction)", got)
	}
	if got := mk(inL, outL, in2).Type(); got != TypeManyAny {
		t.Errorf("three edges: %v", got)
	}
	// NULL ends do not count as neighbors.
	nullEnd := Adj{Nbr: NullID, In: true, PSelf: L}
	if got := mk(nullEnd, outL).Type(); got != TypeOne {
		t.Errorf("null+out: %v", got)
	}
}

func TestNodeInOut(t *testing.T) {
	n := &Node{Kind: KindKmer, Seq: dna.ParseSeq("ACA"), Adj: []Adj{
		{Nbr: 7, In: true, PSelf: H, PNbr: L, Cov: 2},
		{Nbr: 9, In: false, PSelf: L, PNbr: H, Cov: 3},
	}}
	// Normalize to L: first item flips to out(L), second already out(L)?
	// First: in,H -> flipped = out,L. Second stays out,L. Both out -> m-n!
	if n.Type() != TypeManyAny {
		t.Fatalf("type = %v", n.Type())
	}
	n2 := &Node{Kind: KindKmer, Seq: dna.ParseSeq("ACA"), Adj: []Adj{
		{Nbr: 7, In: true, PSelf: L, PNbr: L, Cov: 2},
		{Nbr: 9, In: false, PSelf: L, PNbr: H, Cov: 3},
	}}
	in, out := n2.InOut(L)
	if in.Nbr != 7 || out.Nbr != 9 {
		t.Errorf("InOut(L) = %v,%v", in.Nbr, out.Nbr)
	}
	// Normalizing to H swaps the roles.
	inH, outH := n2.InOut(H)
	if inH.Nbr != 9 || outH.Nbr != 7 {
		t.Errorf("InOut(H) = %v,%v", inH.Nbr, outH.Nbr)
	}
}

// typeByRealAdj and inOutByRealAdj are Node.Type and Node.InOut as first
// written, over a copied slice of the real adjacency items.
func typeByRealAdj(n *Node) NodeType {
	real := n.RealAdj()
	switch len(real) {
	case 0:
		return TypeIsolated
	case 1:
		return TypeOne
	case 2:
		a := real[0].Normalized(L)
		b := real[1].Normalized(L)
		if a.In != b.In {
			return TypeOneOne
		}
		return TypeManyAny
	default:
		return TypeManyAny
	}
}

func inOutByRealAdj(n *Node, p Polarity) (in, out Adj) {
	real := n.RealAdj()
	if len(real) != 2 {
		panic("dbg: InOut on non-<1-1> node")
	}
	a, b := real[0].Normalized(p), real[1].Normalized(p)
	if a.In == b.In {
		panic("dbg: InOut on ambiguous node")
	}
	if a.In {
		return a, b
	}
	return b, a
}

// TestNodeTypeMatchesRealAdj: on random adjacency lists of 0-8 items with
// NULL holes, both polarities and in/out edges, Type and InOut (including
// its panics) agree with the RealAdj-based reference, and allocate nothing.
func TestNodeTypeMatchesRealAdj(t *testing.T) {
	inOut := func(f func(Polarity) (Adj, Adj), p Polarity) (in, out Adj, panicked any) {
		defer func() { panicked = recover() }()
		in, out = f(p)
		return in, out, nil
	}
	r := rand.New(rand.NewSource(3))
	pol := func() Polarity { return []Polarity{L, H}[r.Intn(2)] }
	oneOne := 0
	for it := 0; it < 5000; it++ {
		n := &Node{Kind: KindKmer}
		for range r.Intn(9) {
			nbr := pregel.VertexID(1 + r.Intn(20))
			if r.Intn(3) == 0 {
				nbr = NullID
			}
			n.Adj = append(n.Adj, Adj{Nbr: nbr, In: r.Intn(2) == 0, PSelf: pol(), PNbr: pol(), Cov: uint32(r.Intn(9))})
		}
		want := typeByRealAdj(n)
		if got := n.Type(); got != want {
			t.Fatalf("adj %+v: Type = %v, reference %v", n.Adj, got, want)
		}
		if want == TypeOneOne {
			oneOne++
		}
		for _, p := range []Polarity{L, H} {
			in, out, perr := inOut(n.InOut, p)
			wIn, wOut, wErr := inOut(func(p Polarity) (Adj, Adj) { return inOutByRealAdj(n, p) }, p)
			if in != wIn || out != wOut || perr != wErr {
				t.Fatalf("adj %+v: InOut(%v) = %+v,%+v panic %v; reference %+v,%+v panic %v", n.Adj, p, in, out, perr, wIn, wOut, wErr)
			}
		}
	}
	if oneOne == 0 {
		t.Fatal("no <1-1> node among the random inputs")
	}
	n := &Node{Kind: KindKmer, Adj: []Adj{{Nbr: NullID}, {Nbr: 7, In: true}, {Nbr: 9}}}
	if allocs := testing.AllocsPerRun(100, func() { typeSink = n.Type(); adjSink, _ = n.InOut(H) }); allocs != 0 {
		t.Errorf("Type and InOut allocate %.0f times per node, want 0", allocs)
	}
}

var (
	typeSink NodeType
	adjSink  Adj
)

func TestNodeRemoveEdgeTo(t *testing.T) {
	km := &Node{Kind: KindKmer, Adj: []Adj{{Nbr: 1}, {Nbr: 2}, {Nbr: 1}}}
	if got := km.RemoveEdgeTo(1); got != 2 {
		t.Errorf("removed %d, want 2", got)
	}
	if len(km.Adj) != 1 || km.Adj[0].Nbr != 2 {
		t.Errorf("remaining adj %v", km.Adj)
	}
	ct := &Node{Kind: KindContig, Adj: []Adj{{Nbr: 5, In: true}, {Nbr: 6}}}
	ct.RemoveEdgeTo(5)
	if len(ct.Adj) != 2 || ct.Adj[0].Nbr != NullID {
		t.Errorf("contig end not nulled: %v", ct.Adj)
	}
}

func TestAdjSameEdge(t *testing.T) {
	a := Adj{Nbr: 3, In: true, PSelf: L, PNbr: H, Cov: 5}
	if !a.SameEdge(a) {
		t.Error("item not same as itself")
	}
	if !a.SameEdge(a.Flip()) {
		t.Error("item not same as its flip")
	}
	b := a
	b.PNbr = L
	if a.SameEdge(b) {
		t.Error("different polarity considered same")
	}
	c := a
	c.Cov = 99
	c.NbrLen = 4
	if !a.SameEdge(c) {
		t.Error("coverage/len must be ignored")
	}
}
