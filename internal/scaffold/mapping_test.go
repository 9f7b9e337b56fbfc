package scaffold

import (
	"slices"
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

// seedMap is the seed index contigIndex used before it was flat: one Go map
// from seed to its occurrences in (contig, position) order. Kept as the
// reference for buildIndex and for the voting rule.
type seedMap map[uint64][]seedPos

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
				seeds[v] = append(seeds[v], seedPos{int32(ci), int32(p - s + 1)})
			}
		}
	}
	return seeds
}

// placeByMap is place as first written: map seed lookups and one map of
// votes per read.
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

// placeFixture is a repeat-bearing contig set over a genome of n bases with
// simulated pairs over it: unique reads, reads inside a two-copy repeat
// (ties), reads overhanging contig ends (negative positions) and reads with
// N. The third contig is excluded and the last is shorter than a seed, so
// the index must skip both.
func placeFixture(t testing.TB, n int) (*contigIndex, seedMap, []string) {
	g := testGenomeTB(t, n, 21)
	block := g.Slice(1000, 1400)
	contigs := FromSeqs([]dna.Seq{g.Slice(0, 2500), g.Slice(2500, 4000).Concat(block), g.Slice(4000, 4400), g.Slice(4400, n), g.Slice(10, 25)})
	included := []bool{true, true, false, true, true}
	ix := mustBuildIndex(t, contigs, included, 21)
	var reads []string
	for _, p := range simPairsTB(t, g, 100, 12, 500, 40, 5) {
		reads = append(reads, p.R1, p.R2)
	}
	reads = append(reads, block.Slice(100, 200).String(), "ACGT", g.Slice(2450, 2550).String(),
		g.Slice(300, 350).String()+"N"+g.Slice(351, 400).String())
	return ix, buildSeedMap(contigs, included, 21), reads
}

func TestPlaceMatchesMapVoting(t *testing.T) {
	ix, seeds, reads := placeFixture(t, 6000)

	// The flat index holds exactly the map's seeds, each with the same
	// occurrences in the same order, and nothing else.
	distinct, total := 0, 0
	for _, sl := range ix.slots {
		if sl.n != 0 {
			distinct++
			total += int(sl.n)
		}
	}
	if distinct != len(seeds) || total != len(ix.occ) {
		t.Fatalf("flat index has %d seeds over %d of %d occurrences, the map %d seeds", distinct, total, len(ix.occ), len(seeds))
	}
	repeated := 0
	for seed, want := range seeds {
		if got := ix.lookup(seed); !slices.Equal(got, want) {
			t.Fatalf("lookup(%#x) = %v, the map holds %v", seed, got, want)
		}
		if len(want) > 1 {
			repeated++
		}
		if _, ok := seeds[seed^1]; !ok && ix.lookup(seed^1) != nil {
			t.Fatalf("lookup(%#x) found a seed the map does not hold", seed^1)
		}
	}
	if repeated == 0 {
		t.Fatal("fixture has no repeated seed")
	}

	var votes []vote
	placed, unplaced := 0, 0
	for _, r := range reads {
		want, wantOK := seeds.placeByMap(ix.s, r)
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
	ix, seeds, reads := placeFixture(b, 120_000)
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
			seeds.placeByMap(ix.s, reads[i%len(reads)])
		}
	})
	// The seed lookup alone, flat table against the Go map it replaced:
	// every forward window of every read once per iteration, half of them
	// present in the index (forward-strand reads) and half absent.
	var windows []uint64
	mask := dna.KmerMask(ix.s)
	for _, r := range reads {
		var v uint64
		for i := 0; i < len(r); i++ {
			base, _ := dna.BaseFromByte(r[i])
			if v = (v<<2 | uint64(base)) & mask; i >= ix.s-1 {
				windows = append(windows, v)
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
			seedSink += len(seeds[windows[i%len(windows)]])
		}
	})
}
