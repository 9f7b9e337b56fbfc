package scaffold

import (
	"math/rand"
	"testing"

	"ppaassembler/internal/dna"
	"ppaassembler/internal/pregel"
)

func mustBuildIndex(t testing.TB, contigs []Contig, included []bool, s int) *contigIndex {
	t.Helper()
	ix, err := buildIndex(contigs, included, s, pregel.NewSimClock(pregel.CostModel{}))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// contigPos is one forward-strand occurrence of a seed.
type contigPos struct{ contig, pos int32 }

// seedMap is the seed index contigIndex used before it was flat and
// canonical: one Go map from each forward contig window to its occurrences
// in (contig, position) order. Kept as the reference for the voting rule.
type seedMap map[uint64][]contigPos

func buildSeedMap(contigs []Contig, included []bool, s int) seedMap {
	seeds := seedMap{}
	mask := dna.KmerMask(s)
	for ci, c := range contigs {
		if !included[ci] || c.Seq.Len() < s {
			continue
		}
		var v uint64
		for p := 0; p < c.Seq.Len(); p++ {
			v = (v<<2 | uint64(c.Seq.At(p))) & mask
			if p >= s-1 {
				seeds[v] = append(seeds[v], contigPos{int32(ci), int32(p - s + 1)})
			}
		}
	}
	return seeds
}

// placeByMap is place as first written: a forward and a reverse-complement
// map lookup per window, and one map of votes per read.
func (seeds seedMap) placeByMap(s int, read string) (placement, bool) {
	rl := len(read)
	if rl < s {
		return placement{}, false
	}
	votes := map[placement]int{}
	mask := dna.KmerMask(s)
	var fv, rv uint64
	run := 0
	for i := 0; i < rl; i++ {
		b, ok := dna.BaseFromByte(read[i])
		if !ok {
			run = 0
			continue
		}
		fv = (fv<<2 | uint64(b)) & mask
		rv = rv>>2 | uint64(b.Complement())<<(2*uint(s-1))
		if run++; run < s {
			continue
		}
		o := int32(i - s + 1)
		for _, sp := range seeds[fv] {
			votes[placement{sp.contig, sp.pos - o, true}]++
		}
		for _, sp := range seeds[rv] {
			votes[placement{sp.contig, sp.pos - (int32(rl) - int32(s) - o), false}]++
		}
	}
	var best placement
	maxV, atMax := 0, 0
	for l, v := range votes {
		if v > maxV {
			best, maxV, atMax = l, v, 1
		} else if v == maxV {
			atMax++
		}
	}
	return best, atMax == 1
}

// canonOcc is one occurrence of a canonical seed: fwd when the contig's
// forward window is the seed, not its reverse complement.
type canonOcc struct {
	contig, pos int32
	fwd         bool
}

// buildCanonMap is buildIndex's reference: every contig window cut out and
// canonicalized on its own, keyed by min(fw, rc) with its strand.
func buildCanonMap(contigs []Contig, included []bool, s int) map[uint64][]canonOcc {
	seeds := map[uint64][]canonOcc{}
	for ci, c := range contigs {
		if !included[ci] {
			continue
		}
		for p := 0; p+s <= c.Seq.Len(); p++ {
			canon, fwd := dna.KmerFromSeq(c.Seq, p, s).Canonical(s)
			seeds[uint64(canon)] = append(seeds[uint64(canon)], canonOcc{int32(ci), int32(p), fwd})
		}
	}
	return seeds
}

// checkIndexContent: the flat index holds exactly the reference's canonical
// seeds, each with the same occurrences and strands in the same order, and
// nothing else. It returns how many seeds repeat, how many have occurrences
// on both strands, and how many are their own reverse complement.
func checkIndexContent(t testing.TB, ix *contigIndex, included []bool) (repeated, bothStrands, palindromic int) {
	t.Helper()
	seeds := buildCanonMap(ix.contigs, included, ix.s)
	distinct, total := 0, 0
	for _, sl := range ix.slots {
		if sl.n != 0 {
			distinct++
			total += int(sl.n)
		}
	}
	if distinct != len(seeds) || total != len(ix.occ) {
		t.Fatalf("flat index has %d seeds over %d of %d occurrences, the reference %d seeds", distinct, total, len(ix.occ), len(seeds))
	}
	for seed, want := range seeds {
		got := ix.lookup(seed)
		if len(got) != len(want) {
			t.Fatalf("lookup(%#x) has %d occurrences, the reference %v", seed, len(got), want)
		}
		strands := [2]bool{}
		for i, sp := range got {
			if (canonOcc{sp.contig(), sp.pos, sp.fwd()}) != want[i] {
				t.Fatalf("lookup(%#x)[%d] = contig %d pos %d fwd %v, the reference %+v", seed, i, sp.contig(), sp.pos, sp.fwd(), want[i])
			}
			if sp.fwd() {
				strands[1] = true
			} else {
				strands[0] = true
			}
		}
		if len(want) > 1 {
			repeated++
		}
		if strands[0] && strands[1] {
			bothStrands++
		}
		if dna.Kmer(seed).ReverseComplement(ix.s) == dna.Kmer(seed) {
			palindromic++
		}
		if _, ok := seeds[seed^1]; !ok && ix.lookup(seed^1) != nil {
			t.Fatalf("lookup(%#x) found a seed the reference does not hold", seed^1)
		}
	}
	return repeated, bothStrands, palindromic
}

// placeFixture is a repeat-bearing contig set over a genome of n bases, with
// seed length s, and reads over it: simulated pairs, reads inside a two-copy
// repeat (ties), reads overhanging contig ends (negative positions), reads
// with N, a read across two contigs that overlap by s-1 bases (its windows
// switch from one locus to the other with no gap, half and half: a tie), an
// inverted repeat (a stretch of the first contig whose reverse complement is
// another contig, so one canonical seed has occurrences on both strands) and
// a contig holding a 100 bp palindrome X·RC(X), whose middle window is its
// own reverse complement at even s. Two kinds of read tie only if place never
// takes a window's lone vote on trust where it should look the seed up: one
// runs from a stretch unique to contig 0 through 40 bases contig 0 shares
// with the last contig into that contig's unique rest; the others are a
// contig 0 window, an N, and the reverse complement of the window the first
// one's locus implies after the N. A third, RC(Z)·Y·RC(Y)·Z with |Y| = s/2,
// ties between the two strands of the last contig's Z[0]·Y·RC(Y)·Z, which
// at even s share only the palindromic window (Z[0] before Y keeps the
// palindrome from reaching past it). The third contig is excluded and the
// one shorter than a seed is skipped.
type placeFix struct {
	ix       *contigIndex
	included []bool
	seeds    seedMap
	reads    []string
}

func placeFixture(t testing.TB, n, s int) placeFix {
	g := testGenomeTB(t, n, 21)
	h := testGenomeTB(t, 700, 22)
	block := g.Slice(1000, 1400)
	seam := 2500 - (s - 1) // contig 1 starts s-1 bases before contig 0 ends
	y, z := h.Slice(600, 600+s/2), h.Slice(560, 570)
	pal2 := y.Concat(y.ReverseComplement()).Concat(z)
	pal := h.Slice(0, 100).Concat(h.Slice(100, 150)).Concat(h.Slice(100, 150).ReverseComplement()).Concat(h.Slice(150, 250))
	contigs := FromSeqs([]dna.Seq{
		g.Slice(0, 2500), g.Slice(seam, 4000).Concat(block), g.Slice(4000, 4400), g.Slice(4400, n), g.Slice(10, 25),
		g.Slice(200, 500).ReverseComplement(), pal, g.Slice(600, 640).Concat(h.Slice(300, 500)),
		h.Slice(500, 559).Concat(z.Slice(0, 1)).Concat(pal2).Concat(h.Slice(570, 600)),
	})
	included := []bool{true, true, false, true, true, true, true, true, true}
	var reads []string
	for _, p := range simPairsTB(t, g, 100, 12, 500, 40, 5) {
		reads = append(reads, p.R1, p.R2)
	}
	reads = append(reads, block.Slice(100, 200).String(), "ACGT", g.Slice(2450, 2550).String(),
		g.Slice(300, 350).String()+"N"+g.Slice(351, 400).String(),
		g.Slice(1600, 1650).String()+"N"+g.Slice(1651, 1700).String(),
		g.Slice(seam-40, seam+40+s-1).String(),
		g.Slice(450, 550).String(), g.Slice(450, 550).ReverseComplement().String(),
		pal.Slice(100, 200).String(), pal.Slice(60, 160).String(), pal.Slice(70, 170).ReverseComplement().String(),
		g.Slice(570, 640).Concat(h.Slice(300, 330)).String(),
		z.ReverseComplement().Concat(pal2).String())
	for q := 1800; q < 2200; q += 100 {
		reads = append(reads, g.Slice(q, q+s).String()+"N"+g.Slice(q+s+1, q+2*s+1).ReverseComplement().String())
	}
	return placeFix{mustBuildIndex(t, contigs, included, s), included, buildSeedMap(contigs, included, s), reads}
}

func TestPlaceMatchesMapVoting(t *testing.T) {
	for _, s := range []int{21, 20} {
		fx := placeFixture(t, 6000, s)
		ix := fx.ix
		repeated, bothStrands, palindromic := checkIndexContent(t, ix, fx.included)
		if repeated == 0 || bothStrands == 0 {
			t.Fatalf("s=%d: fixture has %d repeated seeds, %d on both strands", s, repeated, bothStrands)
		}
		if (palindromic > 0) != (s%2 == 0) {
			t.Fatalf("s=%d: fixture has %d palindromic seeds", s, palindromic)
		}

		var votes []vote
		placed, unplaced := 0, 0
		for _, r := range fx.reads {
			want, wantOK := fx.seeds.placeByMap(s, r)
			got, ok := ix.place(r, &votes)
			if ok != wantOK || ok && got != want {
				t.Fatalf("s=%d: place(%q) = %+v,%v, map voting says %+v,%v", s, r, got, ok, want, wantOK)
			}
			if ok {
				placed++
			} else {
				unplaced++
			}
		}
		if placed == 0 || unplaced == 0 {
			t.Fatalf("s=%d: fixture is one-sided: %d placed, %d unplaced", s, placed, unplaced)
		}
		// Steady state: the vote slice has grown to the largest read's votes,
		// so a further pass over every read allocates nothing.
		if allocs := testing.AllocsPerRun(3, func() {
			for _, r := range fx.reads {
				ix.place(r, &votes)
			}
		}); allocs != 0 {
			t.Errorf("s=%d: place allocates %.0f objects per pass over the reads in steady state, want 0", s, allocs)
		}
	}
}

// FuzzPlaceMatchesMapVoting: on random contig sets with direct and inverted
// repeats and palindromes, at odd and even seed lengths, the canonical index
// holds what its reference holds and place agrees with map voting on every
// read, including reads with N, reads shorter than a seed and reads that
// overhang contig ends.
func FuzzPlaceMatchesMapVoting(f *testing.F) {
	for _, s := range []uint8{3, 4, 11, 20, 21, 31} {
		f.Add(int64(s)*7919, s)
	}
	f.Fuzz(func(t *testing.T, seed int64, sRaw uint8) {
		s := 3 + int(sRaw)%29
		r := rand.New(rand.NewSource(seed))
		randSeq := func(n int) dna.Seq {
			b := make([]byte, n)
			for i := range b {
				b[i] = "ACGT"[r.Intn(4)]
			}
			return dna.ParseSeq(string(b))
		}
		var seqs []dna.Seq
		for range 1 + r.Intn(6) {
			c := randSeq(r.Intn(160))
			if len(seqs) > 0 && r.Intn(2) == 0 {
				// A direct or inverted copy of a stretch of an earlier contig.
				src := seqs[r.Intn(len(seqs))]
				lo := r.Intn(src.Len() + 1)
				cp := src.Slice(lo, lo+r.Intn(src.Len()-lo+1))
				if r.Intn(2) == 0 {
					cp = cp.ReverseComplement()
				}
				c = c.Concat(cp)
			}
			if r.Intn(2) == 0 {
				x := randSeq(1 + r.Intn(24))
				c = c.Concat(x).Concat(x.ReverseComplement()).Concat(randSeq(r.Intn(40)))
			}
			seqs = append(seqs, c)
		}
		contigs := FromSeqs(seqs)
		included := make([]bool, len(contigs))
		for i := range included {
			included[i] = r.Intn(5) != 0
		}
		ix := mustBuildIndex(t, contigs, included, s)
		checkIndexContent(t, ix, included)
		seeds := buildSeedMap(contigs, included, s)

		var votes []vote
		for range 40 {
			src := seqs[r.Intn(len(seqs))]
			lo := r.Intn(src.Len() + 1)
			read := randSeq(r.Intn(8)).Concat(src.Slice(lo, lo+r.Intn(src.Len()-lo+1))).Concat(randSeq(r.Intn(8)))
			if r.Intn(2) == 0 {
				read = read.ReverseComplement()
			}
			b := []byte(read.String())
			for range r.Intn(3) {
				if len(b) > 0 {
					b[r.Intn(len(b))] = 'N'
				}
			}
			want, wantOK := seeds.placeByMap(s, string(b))
			got, ok := ix.place(string(b), &votes)
			if ok != wantOK || ok && got != want {
				t.Fatalf("s=%d: place(%q) = %+v,%v, map voting says %+v,%v", s, b, got, ok, want, wantOK)
			}
		}
	})
}

// TestBuildIndexEmpty: no included contig is long enough to hold a seed.
func TestBuildIndexEmpty(t *testing.T) {
	ix := mustBuildIndex(t, FromSeqs([]dna.Seq{dna.ParseSeq("ACGTACGT")}), []bool{true}, 21)
	var votes []vote
	if _, ok := ix.place("ACGTACGTACGTACGTACGTACGTACGT", &votes); ok {
		t.Error("a read was placed on an empty index")
	}
}

// seedSink keeps the lookup benchmarks' results live.
var seedSink int

// BenchmarkPlace runs at the benchmark's pe120k genome size, where the index
// no longer fits the inner caches and a lookup's cost is its cache misses.
func BenchmarkPlace(b *testing.B) {
	fx := placeFixture(b, 120_000, 21)
	ix, reads := fx.ix, fx.reads
	var votes []vote
	b.Run("flat-index-sorted-votes", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix.place(reads[i%len(reads)], &votes)
		}
	})
	b.Run("map-index-map-votes", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fx.seeds.placeByMap(ix.s, reads[i%len(reads)])
		}
	})
	// The seed lookup alone, flat table against a Go map of the same
	// canonical seeds: every canonical window of every read once per
	// iteration, nearly all of them present in the index.
	canon := map[uint64][]seedPos{}
	for _, sl := range ix.slots {
		if sl.n != 0 {
			canon[sl.seed] = ix.occ[sl.off : sl.off+sl.n]
		}
	}
	var windows []uint64
	mask := dna.KmerMask(ix.s)
	for _, r := range reads {
		var fv, rv uint64
		for i := 0; i < len(r); i++ {
			base, _ := dna.BaseFromByte(r[i])
			fv = (fv<<2 | uint64(base)) & mask
			if rv = rv>>2 | uint64(base.Complement())<<(2*uint(ix.s-1)); i >= ix.s-1 {
				windows = append(windows, min(fv, rv))
			}
		}
	}
	b.Run("lookup/flat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seedSink += len(ix.lookup(windows[i%len(windows)]))
		}
	})
	b.Run("lookup/map", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seedSink += len(canon[windows[i%len(windows)]])
		}
	})
}
