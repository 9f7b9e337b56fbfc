package dna

import "fmt"

// MaxK is the largest supported k-mer length. The paper assumes k <= 31 so a
// k-mer fits the low 62 bits of a 64-bit vertex ID, with the top two bits
// reserved (bit 63 discriminates contig/NULL IDs, bit 62 is the contig-end
// "flip" marker); see §IV-A and Figure 7.
const MaxK = 31

// Kmer is a k-mer packed into a uint64: the first (leftmost) base occupies
// the most significant 2 bits of the low 2k bits, so the integer value of a
// Kmer equals the paper's vertex-ID encoding (Figure 7(a)) and integer
// comparison coincides with lexicographic comparison of the sequences.
//
// A Kmer does not carry k; all operations take k explicitly, matching how
// the assembler fixes one global k per run.
type Kmer uint64

// KmerMask returns the mask covering the low 2k bits.
func KmerMask(k int) uint64 { return (uint64(1) << (2 * uint(k))) - 1 }

// ValidK reports whether k is a usable k-mer length. Odd k is required so
// that no k-mer equals its own reverse complement (a palindromic k-mer would
// make edge polarity ambiguous); the paper's experiments use k=31.
func ValidK(k int) error {
	if k < 1 || k > MaxK {
		return fmt.Errorf("dna: k=%d out of range [1,%d]", k, MaxK)
	}
	if k%2 == 0 {
		return fmt.Errorf("dna: k=%d must be odd so no k-mer is its own reverse complement", k)
	}
	return nil
}

// KmerFromSeq packs bases [off, off+k) of s into a Kmer.
func KmerFromSeq(s Seq, off, k int) Kmer {
	var v uint64
	for i := 0; i < k; i++ {
		v = v<<2 | uint64(s.At(off+i))
	}
	return Kmer(v)
}

// ParseKmer packs an ACGT string of length k.
func ParseKmer(s string) Kmer {
	var v uint64
	for i := 0; i < len(s); i++ {
		v = v<<2 | uint64(MustBase(s[i]))
	}
	return Kmer(v)
}

// Seq unpacks m into a Seq of length k.
func (m Kmer) Seq(k int) Seq {
	var b Builder
	b.Grow(k)
	for i := k - 1; i >= 0; i-- {
		b.Append(Base(uint64(m) >> (2 * uint(i)) & 3))
	}
	return b.Seq()
}

// String renders m as k letters.
func (m Kmer) String(k int) string {
	b := make([]byte, k)
	for i := k - 1; i >= 0; i-- {
		b[k-1-i] = Base(uint64(m) >> (2 * uint(i)) & 3).Byte()
	}
	return string(b)
}

// At returns base i (0 = leftmost) of m.
func (m Kmer) At(i, k int) Base { return Base(uint64(m) >> (2 * uint(k-1-i)) & 3) }

// AppendBase drops the leftmost base and appends b on the right: the k-mer
// reached by following an outgoing edge labelled b.
func (m Kmer) AppendBase(b Base, k int) Kmer {
	return Kmer((uint64(m)<<2 | uint64(b)) & KmerMask(k))
}

// PrependBase drops the rightmost base and prepends b on the left: the k-mer
// reached by following an incoming edge labelled b.
func (m Kmer) PrependBase(b Base, k int) Kmer {
	return Kmer(uint64(m)>>2 | uint64(b)<<(2*uint(k-1)))
}

// Last returns the rightmost base of m.
func (m Kmer) Last() Base { return Base(uint64(m) & 3) }

// ReverseComplement returns the reverse complement of m, computed with
// word-level bit operations (complement all bases, then reverse the 2-bit
// groups via a byte swap plus in-byte swizzles).
func (m Kmer) ReverseComplement(k int) Kmer {
	v := ^uint64(m) // complement: A<->T, C<->G under the 2-bit encoding
	// Reverse the 32 2-bit groups of the whole word.
	v = v>>32 | v<<32
	v = (v&0xFFFF0000FFFF0000)>>16 | (v&0x0000FFFF0000FFFF)<<16
	v = (v&0xFF00FF00FF00FF00)>>8 | (v&0x00FF00FF00FF00FF)<<8
	v = (v&0xF0F0F0F0F0F0F0F0)>>4 | (v&0x0F0F0F0F0F0F0F0F)<<4
	v = (v&0xCCCCCCCCCCCCCCCC)>>2 | (v&0x3333333333333333)<<2
	// The k-mer now sits in the high 2k bits; shift it back down.
	return Kmer(v >> (64 - 2*uint(k)))
}

// Canonical returns the lexicographically smaller of m and its reverse
// complement (the canonical k-mer, §III "Directionality"), plus a flag that
// is true when m itself was already canonical. With odd k the two forms are
// never equal.
func (m Kmer) Canonical(k int) (canon Kmer, wasCanonical bool) {
	rc := m.ReverseComplement(k)
	if m <= rc {
		return m, true
	}
	return rc, false
}
