package dbg

import (
	"math/bits"

	"ppaassembler/internal/dna"
)

// Polarity is one side of an edge-polarity pair ⟨X:Y⟩ (§III,
// "Directionality"). L means the incident vertex participates in the
// generating (k+1)-mer in its canonical orientation, H means as its reverse
// complement.
type Polarity uint8

// The two polarity labels.
const (
	L Polarity = 0
	H Polarity = 1
)

// Flip returns the complementary label (H̄ = L, L̄ = H).
func (p Polarity) Flip() Polarity { return p ^ 1 }

// String returns "L" or "H".
func (p Polarity) String() string {
	if p == L {
		return "L"
	}
	return "H"
}

// AdjKmer is one adjacency-list item of a k-mer vertex in uncompressed form
// (the 8-bit bitmap of Figure 8(b)): the neighbor is identified by the base
// that is prepended (in-edge) or appended (out-edge) to this vertex's
// oriented sequence, together with the edge polarity. Null marks the
// dead-end item 10000000.
type AdjKmer struct {
	// Base is prepended (In) or appended (!In) to this vertex's oriented
	// sequence to form the (k+1)-mer that generates the edge.
	Base dna.Base
	// In reports edge direction from this vertex's perspective.
	In bool
	// PSelf is the polarity on this vertex's side, PNbr on the neighbor's.
	PSelf, PNbr Polarity
	// Cov is the edge coverage (the (k+1)-mer count). It is stored beside
	// the bitmap, not inside it.
	Cov uint32
	// Null marks a dead-end marker item; all other fields are ignored.
	Null bool
}

// nullAdjByte is the dead-end bitmap 10000000.
const nullAdjByte = 0x80

// Encode packs the item into the paper's 8-bit format 000XXYZZ, where XX is
// the base, Y the direction (1 = in) and ZZ the edge polarity in edge
// direction (source:target).
func (a AdjKmer) Encode() byte {
	if a.Null {
		return nullAdjByte
	}
	x, y := a.edgePolarity()
	return byte(a.Base)<<3 | boolBit(a.In)<<2 | byte(x)<<1 | byte(y)
}

// edgePolarity returns the pair ⟨X:Y⟩ in edge direction: X is the polarity
// of the edge's source side, Y the target side.
func (a AdjKmer) edgePolarity() (x, y Polarity) {
	if a.In {
		return a.PNbr, a.PSelf
	}
	return a.PSelf, a.PNbr
}

// Flip applies Property 1: edge (u,v) with polarity ⟨X:Y⟩ is equivalent to
// edge (v,u) with polarity ⟨Ȳ:X̄⟩. From a single vertex's perspective this
// reverses the item's direction, complements both polarities, and
// complements the base (because the oriented sequence the base extends is
// itself reverse-complemented).
func (a AdjKmer) Flip() AdjKmer {
	if a.Null {
		return a
	}
	a.In = !a.In
	a.PSelf = a.PSelf.Flip()
	a.PNbr = a.PNbr.Flip()
	a.Base = a.Base.Complement()
	return a
}

// Oriented returns self in the orientation this item references: canonical
// when PSelf is L, reverse complement when H.
func oriented(self dna.Kmer, p Polarity, k int) dna.Kmer {
	if p == L {
		return self
	}
	return self.ReverseComplement(k)
}

// Neighbor reconstructs the neighbor's canonical k-mer from this item,
// following the recipe of §IV-A: orient self by PSelf, prepend/append Base,
// then orient the result by PNbr.
func (a AdjKmer) Neighbor(self dna.Kmer, k int) dna.Kmer {
	if a.Null {
		panic("dbg: Neighbor on NULL adjacency item")
	}
	o := oriented(self, a.PSelf, k)
	var n dna.Kmer
	if a.In {
		n = o.PrependBase(a.Base, k)
	} else {
		n = o.AppendBase(a.Base, k)
	}
	return oriented(n, a.PNbr, k) // PNbr==H means stored form is the rc
}

func boolBit(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Bitmap32 is the compressed adjacency list of a k-mer vertex during DBG
// construction (Figure 8(a)): one bit per (edge polarity ⟨X:Y⟩, direction,
// base) combination, 4×2×4 = 32 bits. Coverage counts are stored in a
// parallel list ordered by ascending bit index.
type Bitmap32 uint32

// bitIndex maps an item to its bit position: polarity pair (in edge
// direction) selects the group of 8, direction the group of 4, base the bit.
func bitIndex(a AdjKmer) int {
	x, y := a.edgePolarity()
	return (int(x)<<1|int(y))<<3 | int(boolBit(a.In))<<2 | int(a.Base)
}

// itemAt inverts bitIndex (without coverage).
func itemAt(bit int) AdjKmer {
	a := AdjKmer{Base: dna.Base(bit & 3), In: bit>>2&1 == 1}
	x, y := Polarity(bit>>4&1), Polarity(bit>>3&1)
	if a.In {
		a.PSelf, a.PNbr = y, x
	} else {
		a.PSelf, a.PNbr = x, y
	}
	return a
}

// Has reports whether the bit for item a is set.
func (b Bitmap32) Has(a AdjKmer) bool { return b&(1<<bitIndex(a)) != 0 }

// Set returns b with the bit for item a set.
func (b Bitmap32) Set(a AdjKmer) Bitmap32 { return b | 1<<bitIndex(a) }

// Count returns the number of set bits (the vertex degree).
func (b Bitmap32) Count() int { return bits.OnesCount32(uint32(b)) }

// rank returns how many set bits precede bit i (the coverage-list index of
// item i).
func (b Bitmap32) rank(i int) int {
	return bits.OnesCount32(uint32(b) & (1<<i - 1))
}
