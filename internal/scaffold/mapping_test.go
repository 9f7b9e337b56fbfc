package scaffold

import (
	"testing"

	"ppaassembler/internal/dna"
	"ppaassembler/internal/pregel"
)

// placeByMap is the tally place used before it sorted a reused slice: one
// map of votes per read. Kept as the reference for the voting rule.
func (ix *contigIndex) placeByMap(read string) (placement, bool) {
	s, rl := ix.s, len(read)
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
		for _, sp := range ix.seeds[fv] {
			votes[placement{sp.contig, sp.pos - o, true}]++
		}
		for _, sp := range ix.seeds[rv] {
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

// placeFixture is a repeat-bearing contig set with simulated pairs over it:
// unique reads, reads inside a two-copy repeat (ties), reads overhanging
// contig ends (negative positions) and reads with N.
func placeFixture(t testing.TB) (*contigIndex, []string) {
	g := testGenomeTB(t, 6000, 21)
	block := g.Slice(1000, 1400)
	contigs := FromSeqs([]dna.Seq{g.Slice(0, 2500), g.Slice(2500, 4000).Concat(block), g.Slice(4000, 6000)})
	ix := buildIndex(contigs, []bool{true, true, true}, 21, pregel.NewSimClock(pregel.CostModel{}))
	var reads []string
	for _, p := range simPairsTB(t, g, 100, 12, 500, 40, 5) {
		reads = append(reads, p.R1, p.R2)
	}
	reads = append(reads, block.Slice(100, 200).String(), "ACGT", g.Slice(2450, 2550).String(),
		g.Slice(300, 350).String()+"N"+g.Slice(351, 400).String())
	return ix, reads
}

func TestPlaceMatchesMapVoting(t *testing.T) {
	ix, reads := placeFixture(t)
	var votes []vote
	placed, unplaced := 0, 0
	for _, r := range reads {
		want, wantOK := ix.placeByMap(r)
		got, ok := ix.place(r, &votes)
		if ok != wantOK || ok && got != want {
			t.Fatalf("place(%q) = %+v,%v, map voting says %+v,%v", r, got, ok, want, wantOK)
		}
		if ok {
			placed++
		} else {
			unplaced++
		}
	}
	if placed == 0 || unplaced == 0 {
		t.Fatalf("fixture is one-sided: %d placed, %d unplaced", placed, unplaced)
	}
	// Steady state: the vote slice has grown to the largest read's votes, so
	// a further pass over every read allocates nothing.
	if allocs := testing.AllocsPerRun(3, func() {
		for _, r := range reads {
			ix.place(r, &votes)
		}
	}); allocs != 0 {
		t.Errorf("place allocates %.0f objects per pass over the reads in steady state, want 0", allocs)
	}
}

func BenchmarkPlace(b *testing.B) {
	ix, reads := placeFixture(b)
	var votes []vote
	b.Run("sorted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix.place(reads[i%len(reads)], &votes)
		}
	})
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix.placeByMap(reads[i%len(reads)])
		}
	})
}
