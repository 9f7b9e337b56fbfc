package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"ppaassembler/internal/genome"
)

// revComp returns the reverse complement of an ACGT string.
func revComp(s string) string {
	b := make([]byte, len(s))
	for i := range s {
		b[len(s)-1-i] = "TGCA"[strings.IndexByte("ACGT", s[i])]
	}
	return string(b)
}

func canonStr(s string) string {
	if r := revComp(s); r < s {
		return r
	}
	return s
}

// oracleContigs is a sequential reference for operations ①②③ on reads
// of plain ACGT, written over strings and maps with no code shared with
// the pipeline. It counts canonical (k+1)-mers, keeps those seen more than
// theta times, and takes their end k-mers as the vertices: the
// (k+1)-mer-verified DBG. A k-mer is unambiguous when it has at most one
// successor and at most one predecessor. Contigs are the maximal paths of
// unambiguous k-mers, each walked both ways from its smallest k-mer as in
// baselines.walkUnitigs. A contig with a dead end, or one that closes a
// cycle, is dropped as a tip when it is no longer than tipLen.
//
// A (k+1)-mer whose two end k-mers are one canonical k-mer (a palindrome or
// a period-1 run) makes a self-loop whose adjacency the bitmap of §IV-A
// records by polarity; the oracle refuses such inputs rather than guess.
func oracleContigs(t *testing.T, reads []string, k int, theta uint32, tipLen int) []string {
	t.Helper()
	counts := map[string]uint32{}
	for _, r := range reads {
		for i := 0; i+k+1 <= len(r); i++ {
			counts[canonStr(r[i:i+k+1])]++
		}
	}
	edges := map[string]bool{}
	kmers := map[string]bool{}
	for e, c := range counts {
		if c <= theta {
			continue
		}
		p, s := canonStr(e[:k]), canonStr(e[1:])
		if p == s {
			t.Fatalf("(k+1)-mer %s joins k-mer %s to itself: outside the oracle's scope", e, p)
		}
		edges[e], kmers[p], kmers[s] = true, true, true
	}
	// succ lists the oriented k-mers that follow o through a kept edge.
	succ := func(o string) []string {
		var next []string
		for _, b := range "ACGT" {
			if edges[canonStr(o+string(b))] {
				next = append(next, o[1:]+string(b))
			}
		}
		return next
	}
	unambig := func(c string) bool { return len(succ(c)) <= 1 && len(succ(revComp(c))) <= 1 }

	canons := make([]string, 0, len(kmers))
	for c := range kmers {
		canons = append(canons, c)
	}
	sort.Strings(canons)
	visited := map[string]bool{}
	// extend walks from the unambiguous oriented k-mer o over unambiguous
	// k-mers. It reports the bases it appended, whether it stopped at a dead
	// end, and whether it came back to start's k-mer (a cycle).
	extend := func(o, start string) (bases []byte, dead, cycle bool) {
		for {
			next := succ(o)
			if len(next) == 0 {
				return bases, true, false
			}
			n := next[0]
			cn := canonStr(n)
			switch {
			case cn == start:
				return bases, false, true
			case !unambig(cn):
				return bases, false, false
			case visited[cn]:
				t.Fatalf("walk from %s met %s twice", start, cn)
			}
			visited[cn] = true
			bases = append(bases, n[k-1])
			o = n
		}
	}
	var out []string
	for _, c := range canons {
		if visited[c] || !unambig(c) {
			continue
		}
		visited[c] = true
		right, rdead, cycle := extend(c, c)
		var left []byte
		ldead := false
		if !cycle {
			left, ldead, _ = extend(revComp(c), c)
		}
		seq := revComp(string(left)) + c + string(right)
		if (ldead || rdead || cycle) && len(seq) <= tipLen {
			continue
		}
		out = append(out, seq)
	}
	return out
}

// contigKey is a contig's form up to reverse complement and, for a cycle
// (a contig whose last k-1 bases repeat its first k-1: the k-mer after its
// last is its first), rotation: the smallest of all rotations of both
// strands.
func contigKey(s string, k int) string {
	n := len(s) - (k - 1)
	if n <= 0 || s[n:] != s[:k-1] {
		return min(s, revComp(s))
	}
	best := ""
	for _, strand := range []string{s[:n], revComp(s)[:n]} {
		for i := 0; i < n; i++ {
			r := strand[i:] + strand[:i]
			if r = r + r[:k-1]; best == "" || r < best {
				best = r
			}
		}
	}
	return best
}

func contigKeys(seqs []string, k int) []string {
	keys := make([]string, len(seqs))
	for i, s := range seqs {
		keys[i] = contigKey(s, k)
	}
	sort.Strings(keys)
	return keys
}

// TestAssemblyMatchesOracle checks operations ①②③ (the one-round plan
// build,label,merge) against oracleContigs. The inputs are error-free
// reads from both strands of random repeat-bearing genomes, of a circular
// genome whose DBG is a pure cycle, and of a genome with dead-end branches
// and a fork. For both labelers at 1, 4 and 7 workers, the merged contig
// set must equal the oracle's up to reverse complement and cycle rotation.
func TestAssemblyMatchesOracle(t *testing.T) {
	const k = 21
	type input struct {
		name  string
		reads []string
	}
	var inputs []input
	for i, spec := range []genome.Spec{
		{Length: 3000, Repeats: 3, RepeatLen: 120, Seed: 201},
		{Length: 4000, Repeats: 5, RepeatLen: 60, Seed: 202},
		{Length: 2500, Repeats: 2, RepeatLen: 300, Seed: 203},
		{Length: 5000, Repeats: 8, RepeatLen: 40, Seed: 204},
	} {
		g, err := genome.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{fmt.Sprintf("genome%d", i), bothStrands(readsFromGenome(g.String(), 70, 9))})
	}
	random := func(n int, seed int64) string {
		g, err := genome.Generate(genome.Spec{Length: n, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return g.String()
	}
	circ := random(600, 205)
	inputs = append(inputs, input{"circular", bothStrands(readsFromGenome(circ+circ[:69], 70, 9))})
	// Side sequences leaving a trunk: a dead-end branch short enough to
	// drop as a tip, one long enough to keep, and a fork at the trunk's
	// first k-mer, which leaves that k-mer two successors and no
	// predecessor.
	trunk := random(1500, 206)
	fork := trunk[:k] + string("ACGT"[(strings.IndexByte("ACGT", trunk[k])+1)%4]) + random(200, 207)
	var branched []string
	for _, chrom := range []string{trunk, trunk[400:500] + random(40, 208), trunk[900:1000] + random(100, 209), fork} {
		branched = append(branched, readsFromGenome(chrom, 70, 9)...)
	}
	inputs = append(inputs, input{"branched", bothStrands(branched)})

	for _, in := range inputs {
		for _, theta := range []uint32{0, 1} {
			want := contigKeys(oracleContigs(t, in.reads, k, theta, DefaultOptions(1).TipLen), k)
			if len(want) == 0 {
				t.Fatalf("%s: the oracle found no contigs", in.name)
			}
			for _, labeler := range []Labeler{LabelerLR, LabelerSV} {
				for _, workers := range []int{1, 4, 7} {
					opt := DefaultOptions(workers)
					opt.K, opt.Theta, opt.Labeler, opt.Rounds = k, theta, labeler, 1
					res := assemble(t, in.reads, opt)
					got := make([]string, len(res.Contigs))
					for i, c := range res.Contigs {
						got[i] = c.Node.Seq.String()
					}
					if keys := contigKeys(got, k); strings.Join(keys, ",") != strings.Join(want, ",") {
						t.Errorf("%s, theta %d, %v, %d workers: %d contigs, oracle %d\n got %v\nwant %v",
							in.name, theta, labeler, workers, len(keys), len(want), keys, want)
					}
				}
			}
		}
	}
}

// bothStrands reverse-complements every other read.
func bothStrands(reads []string) []string {
	for i := 1; i < len(reads); i += 2 {
		reads[i] = revComp(reads[i])
	}
	return reads
}
