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

// seedPos locates one seed occurrence: the contig window at pos whose
// canonical form is the seed. The strand shares the contig word so an
// occurrence stays 8 bytes: fwdCanon is set when the contig's forward window
// is the seed itself, clear when the seed is its reverse complement.
type seedPos struct {
	tag uint32 // contig index (an index into the Build contig slice) | fwdCanon
	pos int32
}

const fwdCanon = 1 << 31

func (sp seedPos) contig() int32 { return int32(sp.tag &^ fwdCanon) }

// fwd reports whether the contig's forward window is the canonical seed.
func (sp seedPos) fwd() bool { return sp.tag&fwdCanon != 0 }

// contigIndex is an exact-match index over both strands of the included
// contigs, keyed by canonical seed: each length-s contig window is stored
// once, under the smaller of its forward and reverse-complement words, with
// a strand bit saying which of the two the contig's forward window is. A
// read window then needs one lookup for both strands: the occurrence's strand
// bit against the read window's own tells a forward-strand hit from a
// reverse-strand one. In a real deployment every worker holds a replica (the
// contig set is orders of magnitude smaller than the read set), so building
// it is charged to the simulated clock as serial time.
//
// The index is flat: occ holds every seed occurrence, grouped by seed and in
// (contig, position) order within a seed, and slots is an open-addressing
// table (load factor at most one half) whose entries carry the seed itself
// and its run occ[off:off+n], n == 0 marking an empty slot. A lookup is one
// multiply and, with the key in the slot, one cache line for the table and
// one for the run.
//
// solo[c][p] describes contig c's window at p without a lookup: its
// canonical seed, with the occurrence's strand bit moved to bit 63, when that
// seed occurs nowhere else in the index and is not its own reverse
// complement; noSolo otherwise.
// Read in window order along a read's locus it is a sequential scan, which
// is what lets place confirm a window's only vote without the table.
type contigIndex struct {
	s       int
	contigs []Contig
	occ     []seedPos
	slots   []seedSlot
	shift   uint8 // 64 - log2(len(slots))
	solo    [][]uint64
}

const noSolo = ^uint64(0) // no canonical seed has bit 62 set, so never a key

// seedSlot is one table entry: a distinct seed and its run in occ.
type seedSlot struct {
	seed   uint64
	off, n int32
}

// buildIndex indexes every length-s window of the included contigs by
// sort-and-scan: windows are collected in (contig, position) order, forward
// and reverse-complement words rolled together and keyed by the smaller,
// radix sorted by seed with their arrival index as payload (the sort is
// stable, so each seed's occurrences keep that order), and each equal-seed
// run becomes one table entry over the occurrence arena; a run of more than
// one occurrence clears those windows' solo entries.
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
	solo := make([]uint64, 0, n)
	ix.solo = make([][]uint64, len(contigs))
	mask := dna.KmerMask(s)
	top := 2 * uint(s-1)
	for ci, c := range contigs {
		if !included[ci] || c.Seq.Len() < s {
			continue
		}
		first := len(solo)
		var fw, rc uint64
		for p := 0; p < c.Seq.Len(); p++ {
			b := c.Seq.At(p)
			fw = (fw<<2 | uint64(b)) & mask
			rc = rc>>2 | uint64(b.Complement())<<top
			if p >= s-1 {
				sp, w := seedPos{uint32(ci), int32(p - s + 1)}, min(fw, rc)
				keys = append(keys, w)
				if fw <= rc {
					sp.tag |= fwdCanon
					w |= 1 << 63
				}
				if fw == rc {
					w = noSolo
				}
				arrival = append(arrival, sp)
				solo = append(solo, w)
			}
		}
		ix.solo[ci] = solo[first:len(solo):len(solo)]
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
		if j-i > 1 {
			for _, a := range order[i:j] {
				solo[a] = noSolo
			}
		}
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
// Each window rolls its forward word fv and reverse-complement word rv and
// looks up min(fv, rv) once. An occurrence whose strand bit agrees with the
// read window's (fv <= rv) is a forward-strand hit, one that disagrees a
// reverse-strand hit; a palindromic window (fv == rv, possible only for even
// s) is both.
//
// While every vote so far went to one locus, a window that lines up with
// that locus on a solo contig window (see contigIndex) is counted for it
// without a lookup: the lookup would return that one occurrence, and it
// votes for that locus only.
//
// The vote stops as soon as it is decided. One seed's occurrences are
// distinct (contig, position, strand) triples, so a window casts at most one
// vote per locus. If after the window ending at read base i every vote so
// far went to one locus, n of them, and n > rl-1-i (the windows still to
// come), no other locus can reach n and that locus wins.
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
	top := 2 * uint(s-1)
	// A reverse-strand read R satisfies R == RC(contig[q : q+rl]); its window
	// at offset o appears reverse-complemented on the contig at position
	// q + rl - s - o.
	rs := int32(rl - s)
	var fv, rv uint64
	run := 0
	for i := 0; i < rl; i++ {
		b, ok := dna.BaseFromByte(read[i])
		if !ok {
			run = 0
			continue
		}
		fv = (fv<<2 | uint64(b)) & mask
		rv = rv>>2 | uint64(b.Complement())<<top
		if run++; run < s {
			continue
		}
		o := int32(i - s + 1) // window offset within the read
		key, fwdRead := min(fv, rv), fv <= rv
		if len(vs) == 1 && ix.soloVote(vs[0].locus, o, rs, key, fwdRead) {
			vs[0].n++
		} else {
			for _, sp := range ix.lookup(key) {
				c := sp.contig()
				switch {
				case fv == rv:
					cast(c, sp.pos-o, 1)
					cast(c, sp.pos-(rs-o), 0)
				case sp.fwd() == fwdRead:
					cast(c, sp.pos-o, 1)
				default:
					cast(c, sp.pos-(rs-o), 0)
				}
			}
		}
		if len(vs) == 1 && vs[0].n > int32(rl-1-i) {
			*votes = vs
			return unpackLocus(vs[0].locus), true
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
	return unpackLocus(best), true
}

// soloVote reports whether the read window at offset o, with canonical seed
// key and strand fwdRead, votes for locus l and nothing else: the contig
// window l implies for it is a solo window holding key with the strand bit a
// vote for l needs. A palindromic read window never passes, since a contig
// window holding its key is a palindrome too and so not solo.
func (ix *contigIndex) soloVote(l uint64, o, rs int32, key uint64, fwdRead bool) bool {
	pl := unpackLocus(l)
	p := pl.pos + o
	if !pl.fwd {
		p = pl.pos + rs - o
	}
	if fwdRead == pl.fwd {
		key |= 1 << 63
	}
	w := ix.solo[pl.contig]
	return uint32(p) < uint32(len(w)) && w[p] == key
}

func unpackLocus(l uint64) placement {
	return placement{contig: int32(l >> 33), pos: int32(uint32(l >> 1)), fwd: l&1 == 1}
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
