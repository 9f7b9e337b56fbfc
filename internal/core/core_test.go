package core

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"ppaassembler/internal/dna"
	"ppaassembler/internal/pregel"
)

// randomCleanGenome returns a random genome of length n whose canonical
// k-mers are all distinct (so the DBG is a simple path and assembly must
// reconstruct it exactly).
func randomCleanGenome(r *rand.Rand, n, k int) string {
	for tries := 0; tries < 200; tries++ {
		b := make([]byte, n)
		for i := range b {
			b[i] = "ACGT"[r.Intn(4)]
		}
		g := string(b)
		if allKmersDistinct(g, k) {
			return g
		}
	}
	panic("could not generate a repeat-free genome")
}

func allKmersDistinct(g string, k int) bool {
	seen := map[dna.Kmer]bool{}
	s := dna.ParseSeq(g)
	for i := 0; i+k <= s.Len(); i++ {
		c, _ := dna.KmerFromSeq(s, i, k).Canonical(k)
		if seen[c] {
			return false
		}
		seen[c] = true
	}
	return true
}

// readsFromGenome slices overlapping windows (error-free "reads").
func readsFromGenome(g string, readLen, step int) []string {
	var reads []string
	for i := 0; ; i += step {
		if i+readLen >= len(g) {
			reads = append(reads, g[len(g)-readLen:])
			break
		}
		reads = append(reads, g[i:i+readLen])
	}
	return reads
}

func assemble(t *testing.T, reads []string, opt Options) *Result {
	t.Helper()
	res, err := Assemble(pregel.ShardSlice(reads, opt.Workers), opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func seqOrRC(s dna.Seq, want string) bool {
	return s.String() == want || s.ReverseComplement().String() == want
}

func testOpts(workers int, k int, labeler Labeler) Options {
	o := DefaultOptions(workers)
	o.K = k
	o.Theta = 0
	o.Labeler = labeler
	return o
}

func TestAssembleSinglePathLR(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	genome := randomCleanGenome(r, 400, 11)
	reads := readsFromGenome(genome, 60, 25)
	res := assemble(t, reads, testOpts(3, 11, LabelerLR))
	if len(res.Contigs) != 1 {
		t.Fatalf("contigs = %d, want 1", len(res.Contigs))
	}
	if !seqOrRC(res.Contigs[0].Node.Seq, genome) {
		t.Errorf("contig does not reconstruct the genome")
	}
	if res.KmerLabel == nil || res.KmerLabel.Supersteps == 0 {
		t.Error("missing k-mer labeling stats")
	}
}

func TestAssembleSinglePathSV(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	genome := randomCleanGenome(r, 350, 11)
	reads := readsFromGenome(genome, 60, 25)
	res := assemble(t, reads, testOpts(2, 11, LabelerSV))
	if len(res.Contigs) != 1 {
		t.Fatalf("contigs = %d, want 1", len(res.Contigs))
	}
	if !seqOrRC(res.Contigs[0].Node.Seq, genome) {
		t.Errorf("contig does not reconstruct the genome")
	}
}

func TestAssembleRoundsOne(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	genome := randomCleanGenome(r, 300, 11)
	reads := readsFromGenome(genome, 50, 20)
	opt := testOpts(2, 11, LabelerLR)
	opt.Rounds = 1
	res := assemble(t, reads, opt)
	if len(res.Contigs) != 1 || !seqOrRC(res.Contigs[0].Node.Seq, genome) {
		t.Fatalf("round-1 assembly failed: %d contigs", len(res.Contigs))
	}
	if res.ContigLabel != nil {
		t.Error("round-1 run should have no contig-labeling stats")
	}
}

func TestAssembleReverseStrandReads(t *testing.T) {
	// Half the reads come from strand 2 (reverse complement); canonical
	// k-mers must stitch them into the same single contig (Figure 6).
	r := rand.New(rand.NewSource(10))
	genome := randomCleanGenome(r, 400, 11)
	reads := readsFromGenome(genome, 60, 25)
	for i := range reads {
		if i%2 == 1 {
			reads[i] = dna.ParseSeq(reads[i]).ReverseComplement().String()
		}
	}
	res := assemble(t, reads, testOpts(3, 11, LabelerLR))
	if len(res.Contigs) != 1 || !seqOrRC(res.Contigs[0].Node.Seq, genome) {
		t.Fatalf("mixed-strand assembly failed: %d contigs", len(res.Contigs))
	}
}

func TestAssembleCycleFallback(t *testing.T) {
	// A circular genome yields a DBG cycle of <1-1> vertices: LR must
	// detect the stall and the S-V fallback must still label one contig.
	r := rand.New(rand.NewSource(11))
	genome := randomCleanGenome(r, 200, 11)
	circ := genome + genome[:60] // reads wrap around the origin
	reads := readsFromGenome(circ, 40, 10)
	opt := testOpts(2, 11, LabelerLR)
	opt.TipLen = 0 // keep everything
	res := assemble(t, reads, opt)
	if len(res.Contigs) != 1 {
		t.Fatalf("contigs = %d, want 1 (cycle)", len(res.Contigs))
	}
	if res.KmerLabel.CycleVertices == 0 {
		t.Error("expected LR to fall back to S-V for the cycle")
	}
	// A cycle over L distinct k-mer positions stitches to L + k - 1 bases.
	want := len(genome) + 11 - 1
	if got := res.Contigs[0].Len(); got != want {
		t.Errorf("cycle contig length = %d, want %d", got, want)
	}
	// The contig is some rotation R of the circular genome plus the k-1
	// wrap bases: s = R + R[:k-1]. Extending it by s[k-1:] yields R+R+...,
	// which contains every rotation, in particular the genome itself.
	s := res.Contigs[0].Node.Seq.String()
	rc := res.Contigs[0].Node.Seq.ReverseComplement().String()
	if !strings.Contains(s+s[10:], genome) && !strings.Contains(rc+rc[10:], genome) {
		t.Error("cycle contig does not cover the circular genome")
	}
}

func TestAssembleTipRemoved(t *testing.T) {
	// One read ends with a sequencing error: its final k-mers dangle off
	// the true path as a short tip. With theta=0 the tip survives DBG
	// construction and must be removed by operation ⑤, after which the
	// second merge round reconstructs the full genome.
	r := rand.New(rand.NewSource(12))
	k := 11
	genome := randomCleanGenome(r, 400, k)
	reads := readsFromGenome(genome, 60, 25)
	// Corrupt the last base of a middle read: creates a dead-end branch.
	bad := []byte(reads[4])
	orig := bad[len(bad)-1]
	for _, c := range []byte("ACGT") {
		if c != orig {
			bad[len(bad)-1] = c
			break
		}
	}
	reads = append(reads, string(bad))
	opt := testOpts(3, k, LabelerLR)
	res := assemble(t, reads, opt)
	if len(res.Contigs) != 1 {
		t.Fatalf("contigs = %d, want 1 after tip removal", len(res.Contigs))
	}
	if !seqOrRC(res.Contigs[0].Node.Seq, genome) {
		t.Error("contig does not reconstruct the genome after tip removal")
	}
	if res.TipVerticesRemoved == 0 && res.TipsDroppedAtMerge[0] == 0 {
		t.Error("expected some tip to be removed somewhere")
	}
	// Without the second round, the assembly must stay fragmented.
	opt1 := opt
	opt1.Rounds = 1
	res1 := assemble(t, reads, opt1)
	if len(res1.Contigs) == 1 && seqOrRC(res1.Contigs[0].Node.Seq, genome) {
		t.Error("round-1 assembly unexpectedly already perfect; tip test is vacuous")
	}
}

func TestAssembleBubbleRemoved(t *testing.T) {
	// A substitution in the middle of one low-coverage read creates a
	// bubble: two parallel arms between two ambiguous vertices. Bubble
	// filtering must prune the low-coverage arm; the second round then
	// reconstructs the genome.
	r := rand.New(rand.NewSource(13))
	k := 11
	genome := randomCleanGenome(r, 400, k)
	var reads []string
	for rep := 0; rep < 3; rep++ { // coverage 3 on the true sequence
		reads = append(reads, readsFromGenome(genome, 80, 40)...)
	}
	bad := []byte(genome[100:180])
	mid := len(bad) / 2
	orig := bad[mid]
	for _, c := range []byte("ACGT") {
		if c != orig {
			bad[mid] = c
			break
		}
	}
	reads = append(reads, string(bad))
	opt := testOpts(3, k, LabelerLR)
	res := assemble(t, reads, opt)
	if res.BubblesPruned == 0 {
		t.Error("expected at least one pruned bubble arm")
	}
	if len(res.Contigs) != 1 {
		t.Fatalf("contigs = %d, want 1 after bubble filtering", len(res.Contigs))
	}
	if !seqOrRC(res.Contigs[0].Node.Seq, genome) {
		t.Error("contig does not reconstruct the genome after bubble filtering")
	}
}

func TestAssembleRepeatCreatesAmbiguity(t *testing.T) {
	// A genome with an exact repeat longer than k cannot be resolved: the
	// assembler must produce multiple contigs, each a correct substring.
	r := rand.New(rand.NewSource(14))
	k := 11
	a := randomCleanGenome(r, 150, k)
	b := randomCleanGenome(r, 40, k)
	c := randomCleanGenome(r, 150, k)
	d := randomCleanGenome(r, 150, k)
	genome := a + b + c + b + d // repeat b appears twice
	reads := readsFromGenome(genome, 60, 20)
	res := assemble(t, reads, testOpts(3, k, LabelerLR))
	if len(res.Contigs) < 2 {
		t.Fatalf("contigs = %d, want >= 2 (unresolvable repeat)", len(res.Contigs))
	}
	double := genome + "|" + dna.ParseSeq(genome).ReverseComplement().String()
	for _, ctg := range res.Contigs {
		if !strings.Contains(double, ctg.Node.Seq.String()) {
			t.Errorf("contig %q is not a substring of the genome (misassembly)", ctg.Node.Seq.String())
		}
	}
}

func contigSeqSet(res *Result) []string {
	var out []string
	for _, c := range res.Contigs {
		s := c.Node.Seq.String()
		rc := c.Node.Seq.ReverseComplement().String()
		if rc < s {
			s = rc
		}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func TestAssembleWorkerCountInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	k := 11
	genome := randomCleanGenome(r, 300, k)
	reads := readsFromGenome(genome, 50, 20)
	// Inject one error to exercise correction paths too.
	reads = append(reads, genome[40:90]+"A")
	base := assemble(t, reads, testOpts(1, k, LabelerLR))
	want := contigSeqSet(base)
	for _, w := range []int{2, 4, 7} {
		got := contigSeqSet(assemble(t, reads, testOpts(w, k, LabelerLR)))
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d contigs vs %d", w, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: contig %d differs", w, i)
			}
		}
	}
}

func TestLabelersAgreeOnGrouping(t *testing.T) {
	// LR and S-V must produce identical contig sets (labels differ, the
	// grouping must not).
	r := rand.New(rand.NewSource(16))
	k := 11
	a := randomCleanGenome(r, 120, k)
	b := randomCleanGenome(r, 40, k)
	c := randomCleanGenome(r, 120, k)
	genome := a + b + c + b + a[:60] // repeats => several contigs
	reads := readsFromGenome(genome, 50, 15)
	lr := contigSeqSet(assemble(t, reads, testOpts(3, k, LabelerLR)))
	sv := contigSeqSet(assemble(t, reads, testOpts(3, k, LabelerSV)))
	if len(lr) != len(sv) {
		t.Fatalf("LR %d contigs, SV %d", len(lr), len(sv))
	}
	for i := range lr {
		if lr[i] != sv[i] {
			t.Errorf("contig %d differs between labelers", i)
		}
	}
}

func TestLRUsesFewerSuperstepsThanSV(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	k := 11
	genome := randomCleanGenome(r, 800, k)
	reads := readsFromGenome(genome, 60, 20)
	lr := assemble(t, reads, testOpts(2, k, LabelerLR))
	sv := assemble(t, reads, testOpts(2, k, LabelerSV))
	if lr.KmerLabel.Supersteps >= sv.KmerLabel.Supersteps {
		t.Errorf("LR supersteps %d not fewer than SV %d",
			lr.KmerLabel.Supersteps, sv.KmerLabel.Supersteps)
	}
	if lr.KmerLabel.Messages >= sv.KmerLabel.Messages {
		t.Errorf("LR messages %d not fewer than SV %d",
			lr.KmerLabel.Messages, sv.KmerLabel.Messages)
	}
}

func TestVertexCollapseCounters(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	k := 11
	genome := randomCleanGenome(r, 400, k)
	reads := readsFromGenome(genome, 60, 20)
	res := assemble(t, reads, testOpts(2, k, LabelerLR))
	if res.KmerVertices == 0 {
		t.Fatal("no k-mer vertices recorded")
	}
	if res.MidVertices >= res.KmerVertices {
		t.Errorf("mid vertices %d not smaller than k-mer vertices %d",
			res.MidVertices, res.KmerVertices)
	}
	if res.FinalContigs > res.MidVertices {
		t.Errorf("final contigs %d exceed mid vertices %d", res.FinalContigs, res.MidVertices)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := Assemble(nil, Options{Workers: 2, K: 11, Rounds: 5}); err == nil {
		t.Error("Rounds=5 accepted")
	}
	if _, err := Assemble(nil, Options{Workers: -1, K: 11, Rounds: 1}); err == nil {
		t.Error("negative workers accepted")
	}
	if _, err := Assemble(nil, Options{Workers: 2, K: 10, Rounds: 1}); err == nil {
		t.Error("even k accepted")
	}
	// Zero is refused like any other bad value, never swapped for a
	// default that would drop the caller's other options.
	if _, err := Assemble(nil, Options{Workers: 0, K: 31, Theta: 2, Rounds: 1}); err == nil ||
		!strings.Contains(err.Error(), "Workers") {
		t.Errorf("Workers=0 accepted or not named: %v", err)
	}
	if _, err := Assemble(nil, Options{Workers: 2, K: 31, Theta: 2, Rounds: 0}); err == nil ||
		!strings.Contains(err.Error(), "Rounds") {
		t.Errorf("Rounds=0 accepted or not named: %v", err)
	}
}
