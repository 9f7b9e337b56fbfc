package scaffold

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"ppaassembler/internal/dna"
	"ppaassembler/internal/pregel"
)

// seedPos locates one seed occurrence on a contig's forward strand.
type seedPos struct {
	contig int32 // index into the Build contig slice
	pos    int32
}

// contigIndex is an exact-match k-mer index over the forward strands of the
// included contigs. In a real deployment every worker holds a replica (the
// contig set is orders of magnitude smaller than the read set), so building
// it is charged to the simulated clock as serial time.
//
// The index is flat: occ holds every seed occurrence, grouped by seed and in
// (contig, position) order within a seed, and slots is an open-addressing
// table (load factor at most one half) whose entries carry the seed itself
// and its run occ[off:off+n], n == 0 marking an empty slot. Mate placement
// does two lookups per read window, so a lookup is one multiply and, with the
// key in the slot, one cache line for the table and one for the run.
type contigIndex struct {
	s       int
	contigs []Contig
	occ     []seedPos
	slots   []seedSlot
	shift   uint8 // 64 - log2(len(slots))
}

// seedSlot is one table entry: a distinct seed and its run in occ.
type seedSlot struct {
	seed   uint64
	off, n int32
}

// buildIndex indexes every length-s window of the included contigs by
// sort-and-scan: windows are collected in (contig, position) order, radix
// sorted by seed with their arrival index as payload (the sort is stable, so
// each seed's occurrences keep that order), and each equal-seed run becomes
// one table entry over the occurrence arena.
func buildIndex(contigs []Contig, included []bool, s int, clock *pregel.SimClock) (*contigIndex, error) {
	start := time.Now()
	ix := &contigIndex{s: s, contigs: contigs}
	n := 0
	for ci, c := range contigs {
		if included[ci] && c.Seq.Len() >= s {
			n += c.Seq.Len() - s + 1
		}
	}
	if n >= math.MaxInt32 {
		return nil, fmt.Errorf("scaffold: %d seed positions in the contig set exceed the seed index's int32 offsets", n)
	}
	keys := make([]uint64, 0, n)
	arrival := make([]seedPos, 0, n)
	mask := dna.KmerMask(s)
	for ci, c := range contigs {
		if !included[ci] || c.Seq.Len() < s {
			continue
		}
		var v uint64
		for p := 0; p < c.Seq.Len(); p++ {
			v = (v<<2 | uint64(c.Seq.At(p))) & mask
			if p >= s-1 {
				keys = append(keys, v)
				arrival = append(arrival, seedPos{int32(ci), int32(p - s + 1)})
			}
		}
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	pregel.RadixSort(keys, order)
	ix.occ = make([]seedPos, n)
	distinct := 0
	for i, k := range keys {
		ix.occ[i] = arrival[order[i]]
		if i == 0 || k != keys[i-1] {
			distinct++
		}
	}

	size := 1 << bits.Len(uint(2*distinct)|7) // power of two, > 2x the seeds
	ix.slots = make([]seedSlot, size)
	ix.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for i := 0; i < n; {
		j := i + 1
		for j < n && keys[j] == keys[i] {
			j++
		}
		h := ix.home(keys[i])
		for ix.slots[h].n != 0 {
			h = (h + 1) & uint64(size-1)
		}
		ix.slots[h] = seedSlot{seed: keys[i], off: int32(i), n: int32(j - i)}
		i = j
	}
	clock.ChargeSerial(float64(time.Since(start).Nanoseconds()))
	return ix, nil
}

// home is the first slot of a seed's probe run: Fibonacci hashing, whose
// high product bits depend on every bit of the 2-bit-packed seed.
func (ix *contigIndex) home(seed uint64) uint64 {
	return (seed * 0x9E3779B97F4A7C15) >> ix.shift
}

// lookup returns the occurrences of seed in (contig, position) order.
func (ix *contigIndex) lookup(seed uint64) []seedPos {
	mask := uint64(len(ix.slots) - 1)
	for h := ix.home(seed); ; h = (h + 1) & mask {
		sl := &ix.slots[h]
		if sl.n == 0 {
			return nil
		}
		if sl.seed == seed {
			return ix.occ[sl.off : sl.off+sl.n]
		}
	}
}

// placement is one mate placed on a contig: pos is the inferred position of
// the read's leftmost base on the contig's forward strand (possibly negative
// or past the end when the read overhangs the contig), fwd its strand.
type placement struct {
	contig int32
	pos    int32
	fwd    bool
}

// vote is n votes for one packed locus (see place).
type vote struct {
	locus uint64
	n     int32
}

// place maps one read by seed voting: every error-free length-s window votes
// for the (contig, strand, offset) locus it implies, and the read is placed
// at the locus with strictly the most votes. Ties mean a repeat-ambiguous
// placement and leave the read unplaced, exactly as read mappers discard
// multi-mapping mates before scaffolding.
//
// Votes are collected in *votes — scratch the caller owns and reuses from
// read to read, one per concurrent mapper. Consecutive windows of a read that
// matches one place vote for the same locus, so votes are run-length merged
// as they arrive (a uniquely placed read leaves one entry); the entries are
// then sorted so each locus's remaining runs are adjacent and the tally is a
// single scan.
func (ix *contigIndex) place(read string, votes *[]vote) (placement, bool) {
	s := ix.s
	rl := len(read)
	if rl < s {
		return placement{}, false
	}
	// A locus packs as contig (31 bits) | pos (32 bits, two's complement) |
	// strand (1 bit); only equality of loci matters to the vote.
	vs := (*votes)[:0]
	cast := func(contig, pos int32, fwd uint64) {
		l := uint64(contig)<<33 | uint64(uint32(pos))<<1 | fwd
		if k := len(vs) - 1; k >= 0 && vs[k].locus == l {
			vs[k].n++
			return
		}
		vs = append(vs, vote{l, 1})
	}
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
		o := int32(i - s + 1) // window offset within the read
		for _, sp := range ix.lookup(fv) {
			cast(sp.contig, sp.pos-o, 1)
		}
		// A reverse-strand read R satisfies R == RC(contig[q : q+rl]); its
		// window at offset o appears reverse-complemented on the contig at
		// position q + rl - s - o.
		for _, sp := range ix.lookup(rv) {
			cast(sp.contig, sp.pos-(int32(rl)-int32(s)-o), 0)
		}
	}
	*votes = vs
	slices.SortFunc(vs, func(a, b vote) int { return cmp.Compare(a.locus, b.locus) })
	var best uint64
	maxV, atMax := int32(0), 0 // the highest vote count, and how many loci reached it
	for i := 0; i < len(vs); {
		l, n := vs[i].locus, int32(0)
		for ; i < len(vs) && vs[i].locus == l; i++ {
			n += vs[i].n
		}
		if n > maxV {
			best, maxV, atMax = l, n, 1
		} else if n == maxV {
			atMax++
		}
	}
	if atMax != 1 {
		return placement{}, false
	}
	return placement{contig: int32(best >> 33), pos: int32(uint32(best >> 1)), fwd: best&1 == 1}, true
}

// endpoint converts a mate placement into the contig end the mate's partner
// lies beyond, plus the distance from the mate's 5' base to that end. A
// forward mate reads rightward, so the fragment continues past end R; a
// reverse mate reads leftward toward end L.
func endpoint(p placement, readLen, contigLen int) (End, int) {
	if p.fwd {
		return R, contigLen - int(p.pos)
	}
	return L, int(p.pos) + readLen
}
