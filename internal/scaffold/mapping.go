package scaffold

import (
	"cmp"
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
type contigIndex struct {
	s       int
	contigs []Contig
	seeds   map[uint64][]seedPos
}

func buildIndex(contigs []Contig, included []bool, s int, clock *pregel.SimClock) *contigIndex {
	start := time.Now()
	ix := &contigIndex{s: s, contigs: contigs, seeds: make(map[uint64][]seedPos)}
	mask := dna.KmerMask(s)
	for ci, c := range contigs {
		if !included[ci] || c.Seq.Len() < s {
			continue
		}
		var v uint64
		for p := 0; p < c.Seq.Len(); p++ {
			v = (v<<2 | uint64(c.Seq.At(p))) & mask
			if p >= s-1 {
				ix.seeds[v] = append(ix.seeds[v], seedPos{int32(ci), int32(p - s + 1)})
			}
		}
	}
	clock.ChargeSerial(float64(time.Since(start).Nanoseconds()))
	return ix
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
		for _, sp := range ix.seeds[fv] {
			cast(sp.contig, sp.pos-o, 1)
		}
		// A reverse-strand read R satisfies R == RC(contig[q : q+rl]); its
		// window at offset o appears reverse-complemented on the contig at
		// position q + rl - s - o.
		for _, sp := range ix.seeds[rv] {
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
