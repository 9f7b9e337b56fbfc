package dbg

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ppaassembler/internal/dna"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/pregel/ckpttest"
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
		for i := range v.Degree() {
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
				if ov.Covs != v.Covs {
					ok = false
					return
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

// kmerNodeExplicit is KmerNode as it was before a k-mer node derived its
// items from the bitmap: the sequence word and an exactly-sized item slice,
// resolved in ascending bit order, with the smallest coverage as the node's.
// Kept here as the reference the derived form must match.
func kmerNodeExplicit(id pregel.VertexID, v *KmerVertex, k int) Node {
	self := KmerOf(id)
	var adj []Adj
	var cov uint32
	for rest := uint32(v.Adj); rest != 0; rest &= rest - 1 {
		a := itemAt(bits.TrailingZeros32(rest))
		c := v.Covs[len(adj)]
		if len(adj) == 0 || c < cov {
			cov = c
		}
		adj = append(adj, Adj{
			Nbr:    KmerID(a.Neighbor(self, k)),
			In:     a.In,
			PSelf:  a.PSelf,
			PNbr:   a.PNbr,
			Cov:    c,
			NbrLen: int32(k),
		})
	}
	return NewNode(id, KindKmer, self.Seq(k), cov, adj)
}

// itemsOf collects a node's items through its iterator.
func itemsOf(n *Node) []Adj {
	var out []Adj
	for _, a := range n.Items() {
		out = append(out, a)
	}
	return out
}

// checkKmerNode compares KmerNode(id, v, k) with the explicit reference:
// the same items in the same order, the same coverage and sequence, and
// the derived form exactly up to InlineCovs items.
func checkKmerNode(t testing.TB, id pregel.VertexID, v *KmerVertex, k int) {
	t.Helper()
	got, want := KmerNode(id, v, k), kmerNodeExplicit(id, v, k)
	if derived := got.Explicit == nil; derived != (v.Degree() <= InlineCovs) {
		t.Fatalf("k=%d bitmap %032b: derived=%v with %d items", k, v.Adj, derived, v.Degree())
	}
	gi, wi := itemsOf(&got), itemsOf(&want)
	if !reflect.DeepEqual(gi, wi) || got.Cov != want.Cov || got.Degree() != want.Degree() ||
		!got.Oriented(L).Equal(want.Seq) || got.Len() != k || got.Type() != want.Type() {
		t.Fatalf("k=%d bitmap %032b:\n got %+v cov %d\nwant %+v cov %d", k, v.Adj, gi, got.Cov, wi, want.Cov)
	}
}

// randomVertex is a vertex of up to MaxDegree random items with distinct
// coverages (so a wrong rank or a wrong minimum shows).
func randomVertex(r *rand.Rand) KmerVertex {
	var v KmerVertex
	for bm := r.Uint32() & r.Uint32(); bm != 0 && v.Degree() < MaxDegree; bm &= bm - 1 {
		v.Adj |= Bitmap32(bm & -bm)
	}
	for i := range v.Degree() {
		v.Covs[i] = 1 + uint32(r.Intn(1000))
	}
	return v
}

func TestKmerNodeConversion(t *testing.T) {
	reads := []string{"ATTGCAAGT"}
	res := buildFromReads(t, reads, 3, 0, 2)
	res.Graph.ForEach(func(id pregel.VertexID, v *KmerVertex) {
		checkKmerNode(t, id, v, 3)
	})

	// Every degree a vertex can have, not only the ones a small build
	// produces.
	r := rand.New(rand.NewSource(3))
	for _, k := range []int{3, 21, 31} {
		for trial := 0; trial < 400; trial++ {
			v := randomVertex(r)
			if trial == 0 {
				v = KmerVertex{} // isolated: no items
			}
			self, _ := dna.Kmer(r.Uint64() & dna.KmerMask(k)).Canonical(k)
			checkKmerNode(t, KmerID(self), &v, k)
		}
	}

	// Alloc fence: a derived k-mer owns no heap object.
	v := KmerVertex{Adj: 0b1000_0000_0010_0000_0000_0000_1000_0001, Covs: [MaxDegree]uint32{9, 8, 7, 6}}
	id := KmerID(dna.ParseKmer("ACGTACGTACGTACGTACGTA"))
	if allocs := testing.AllocsPerRun(100, func() { nodeSink = KmerNode(id, &v, 21) }); allocs != 0 {
		t.Errorf("KmerNode allocates %.0f times per derived node, want 0", allocs)
	}
	n := KmerNode(id, &v, 21)
	if allocs := testing.AllocsPerRun(100, func() {
		typeSink = n.Type()
		for _, a := range n.Items() {
			adjSink = a
		}
	}); allocs != 0 {
		t.Errorf("reading a derived node allocates %.0f times, want 0", allocs)
	}
}

// TestMaxDegreeVertex builds, from every (k+1)-mer, vertices with the most
// items any de Bruijn graph can give a k-mer: MaxDegree, on odd k. The
// vertex fits KmerVertex, turns into an explicit node with the reference's
// items, and survives a checkpoint round trip.
func TestMaxDegreeVertex(t *testing.T) {
	for _, k := range []int{3, 5, 7} {
		g := map[pregel.VertexID]*KmerVertex{}
		add := func(id pregel.VertexID, a AdjKmer) {
			if g[id] == nil {
				g[id] = &KmerVertex{}
			}
			g[id].AddEdge(a)
		}
		for w := dna.Kmer(0); w < 1<<(2*uint(k+1)); w++ {
			if c, _ := w.Canonical(k + 1); c != w {
				continue
			}
			src, si, dst, di := EdgeEndpoints(K1Mer{ID: w, Cov: uint32(w) + 1}, k)
			add(src, si)
			add(dst, di)
		}
		top := 0
		for id, v := range g {
			top = max(top, v.Degree())
			if v.Degree() == MaxDegree {
				checkKmerNode(t, id, v, k)
				ckpttest.RoundTrip[KmerVertex](t, v)
				n := KmerNode(id, v, k)
				ckpttest.RoundTrip[Node](t, &n)
			}
		}
		if top != MaxDegree {
			t.Fatalf("k=%d: largest degree %d, want MaxDegree %d", k, top, MaxDegree)
		}
	}
}

// TestDerivedNodeEditsMatchExplicit: removing edges from, filtering and
// extending a derived k-mer leave the items the same edits leave on the
// explicit reference.
func TestDerivedNodeEditsMatchExplicit(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	const k = 21
	for trial := 0; trial < 500; trial++ {
		v := randomVertex(r)
		for v.Degree() > InlineCovs {
			v = randomVertex(r)
		}
		self, _ := dna.Kmer(r.Uint64() & dna.KmerMask(k)).Canonical(k)
		id := KmerID(self)
		got, want := KmerNode(id, &v, k), kmerNodeExplicit(id, &v, k)
		mask := r.Uint32()
		fg, fw := got.Filtered(mask), want.Filtered(mask)
		if !reflect.DeepEqual(itemsOf(&fg), itemsOf(&fw)) || fg.Explicit != nil {
			t.Fatalf("bitmap %032b: Filtered(%b) = %+v, want %+v", v.Adj, mask, itemsOf(&fg), itemsOf(&fw))
		}
		if v.Degree() > 0 {
			nbr := itemsOf(&got)[r.Intn(v.Degree())].Nbr
			if a, b := got.RemoveEdgeTo(nbr), want.RemoveEdgeTo(nbr); a != b {
				t.Fatalf("bitmap %032b: removed %d, reference %d", v.Adj, a, b)
			}
			if !reflect.DeepEqual(itemsOf(&got), itemsOf(&want)) {
				t.Fatalf("bitmap %032b: after RemoveEdgeTo %+v, want %+v", v.Adj, itemsOf(&got), itemsOf(&want))
			}
			ckpttest.RoundTrip[Node](t, &got)
		}
		extra := Adj{Nbr: ContigID(1, 1), PNbr: L, Cov: 4, NbrLen: 40}
		got.AddItem(extra)
		want.AddItem(extra)
		if !reflect.DeepEqual(itemsOf(&got), itemsOf(&want)) || !got.Oriented(L).Equal(want.Seq) {
			t.Fatalf("bitmap %032b: after AddItem %+v, want %+v", v.Adj, itemsOf(&got), itemsOf(&want))
		}
	}
}

// FuzzKmerNodeItems checks the bitmap-derived items of KmerNode against
// the explicit reference on fuzzed k, k-mer, bitmap and coverages. The
// seeds include a self-loop (k+1)-mer, a palindromic one, a period-1 run
// and a vertex of MaxDegree items.
func FuzzKmerNodeItems(f *testing.F) {
	// seed adds the vertex kmer gets from the given (k+1)-mers, or from
	// every (k+1)-mer when none is given.
	seed := func(k int, kmer string, cov uint32, k1mers ...string) {
		var v KmerVertex
		id := KmerID(dna.ParseKmer(kmer))
		var ws []dna.Kmer
		for _, w := range k1mers {
			ws = append(ws, dna.ParseKmer(w))
		}
		if len(ws) == 0 {
			for w := dna.Kmer(0); w < 1<<(2*uint(k+1)); w++ {
				ws = append(ws, w)
			}
		}
		for _, w := range ws {
			e, _ := w.Canonical(k + 1)
			if e != w && len(k1mers) == 0 {
				continue
			}
			src, si, dst, di := EdgeEndpoints(K1Mer{ID: e, Cov: cov}, k)
			if src == id {
				v.AddEdge(si)
			}
			if dst == id {
				v.AddEdge(di)
			}
		}
		data := []byte{byte(k / 2)}
		data = binary.LittleEndian.AppendUint64(data, uint64(id))
		data = binary.LittleEndian.AppendUint32(data, uint32(v.Adj))
		for _, c := range v.Covs[:v.Degree()] {
			data = binary.LittleEndian.AppendUint32(data, c)
		}
		f.Add(data)
	}
	seed(5, "AAAAA", 7, "AAAAAA")                     // self-loop: both ends are AAAAA
	seed(5, "ACGCG", 3, "ACGCGT", "TACGCG")           // ACGCGT is its own reverse complement
	seed(5, "AAAAA", 2, "AAAAAA", "AAAAAC", "CAAAAA") // period-1 run with its exits
	seed(3, "ATA", 5)                                 // MaxDegree: ATAT and TATA are palindromes
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &fuzzGen{data: data}
		k := 1 + 2*(int(g.b())%15)
		self, _ := dna.Kmer(g.u64() & dna.KmerMask(k)).Canonical(k)
		var v KmerVertex
		for bm := g.u32(); bm != 0 && v.Degree() < MaxDegree; bm &= bm - 1 {
			v.Adj |= Bitmap32(bm & -bm)
		}
		for i := range v.Degree() {
			v.Covs[i] = g.u32()
		}
		checkKmerNode(t, KmerID(self), &v, k)
	})
}

var nodeSink Node

func ptr[T any](v T) *T { return &v }

func TestNodeTypeClassification(t *testing.T) {
	mk := func(adj ...Adj) *Node { return ptr(NewNode(0, KindKmer, dna.ParseSeq("ACA"), 0, adj)) }
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
	n := ptr(NewNode(0, KindKmer, dna.ParseSeq("ACA"), 0, []Adj{
		{Nbr: 7, In: true, PSelf: H, PNbr: L, Cov: 2},
		{Nbr: 9, In: false, PSelf: L, PNbr: H, Cov: 3},
	}))
	// Normalize to L: first item flips to out(L), second already out(L)?
	// First: in,H -> flipped = out,L. Second stays out,L. Both out -> m-n!
	if n.Type() != TypeManyAny {
		t.Fatalf("type = %v", n.Type())
	}
	n2 := ptr(NewNode(0, KindKmer, dna.ParseSeq("ACA"), 0, []Adj{
		{Nbr: 7, In: true, PSelf: L, PNbr: L, Cov: 2},
		{Nbr: 9, In: false, PSelf: L, PNbr: H, Cov: 3},
	}))
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
		n := ptr(NewNode(0, KindKmer, dna.Seq{}, 0, nil))
		for range r.Intn(9) {
			nbr := pregel.VertexID(1 + r.Intn(20))
			if r.Intn(3) == 0 {
				nbr = NullID
			}
			n.AddItem(Adj{Nbr: nbr, In: r.Intn(2) == 0, PSelf: pol(), PNbr: pol(), Cov: uint32(r.Intn(9))})
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
	n := ptr(NewNode(0, KindKmer, dna.Seq{}, 0, []Adj{{Nbr: NullID}, {Nbr: 7, In: true}, {Nbr: 9}}))
	if allocs := testing.AllocsPerRun(100, func() { typeSink = n.Type(); adjSink, _ = n.InOut(H) }); allocs != 0 {
		t.Errorf("Type and InOut allocate %.0f times per node, want 0", allocs)
	}
}

var (
	typeSink NodeType
	adjSink  Adj
)

func TestNodeRemoveEdgeTo(t *testing.T) {
	km := ptr(NewNode(0, KindKmer, dna.Seq{}, 0, []Adj{{Nbr: 1}, {Nbr: 2}, {Nbr: 1}}))
	if got := km.RemoveEdgeTo(1); got != 2 {
		t.Errorf("removed %d, want 2", got)
	}
	if len(km.Adj) != 1 || km.Adj[0].Nbr != 2 {
		t.Errorf("remaining adj %v", km.Adj)
	}
	ct := ptr(NewNode(0, KindContig, dna.Seq{}, 0, []Adj{{Nbr: 5, In: true}, {Nbr: 6}}))
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

// TestNodeSizeFence pins both k-mer vertex types: the build vertex at 44
// bytes and pointer-free, the segment node at 48 bytes with one pointer,
// Explicit, which a derived k-mer leaves nil.
func TestNodeSizeFence(t *testing.T) {
	var pointers func(reflect.Type) int
	pointers = func(ty reflect.Type) int {
		switch ty.Kind() {
		case reflect.Struct:
			n := 0
			for i := range ty.NumField() {
				n += pointers(ty.Field(i).Type)
			}
			return n
		case reflect.Array:
			return ty.Len() * pointers(ty.Elem())
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.String, reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
			return 1
		}
		return 0
	}
	for _, c := range []struct {
		v              any
		size, pointers int
	}{{KmerVertex{}, 44, 0}, {Node{}, 48, 1}} {
		ty := reflect.TypeOf(c.v)
		if got := int(ty.Size()); got != c.size {
			t.Errorf("%v is %d bytes, want %d", ty, got, c.size)
		}
		if got := pointers(ty); got != c.pointers {
			t.Errorf("%v holds %d pointers, want %d", ty, got, c.pointers)
		}
	}
}
