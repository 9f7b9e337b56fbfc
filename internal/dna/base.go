// Package dna provides the DNA-sequence substrate used throughout the
// assembler: 2-bit packed sequences, reverse complements, canonical k-mers,
// the 64-bit integer encoding of k-mers used as Pregel vertex IDs, and the
// edit-distance routine used by bubble filtering.
//
// The bit encoding follows the paper (§IV-A): A=00, C=01, G=10, T=11. With
// this encoding the complement of a base b is 3-b (equivalently b XOR 0b11),
// which makes reverse complementation branch-free.
package dna

import "fmt"

// Base is a single nucleotide in 2-bit encoding: A=0, C=1, G=2, T=3.
type Base uint8

// The four nucleotides.
const (
	A Base = 0
	C Base = 1
	G Base = 2
	T Base = 3
)

// Complement returns the Watson-Crick complement: A<->T, C<->G.
func (b Base) Complement() Base { return b ^ 3 }

// Byte returns the upper-case ASCII letter for b.
func (b Base) Byte() byte { return "ACGT"[b&3] }

// String returns the single-letter representation of b.
func (b Base) String() string { return string(b.Byte()) }

// BaseFromByte converts an ASCII nucleotide letter (upper or lower case) to a
// Base. The second return value reports whether c was a valid A/C/G/T letter;
// 'N' and any other byte return false.
func BaseFromByte(c byte) (Base, bool) {
	v := baseOf[c]
	return Base(v & 3), v < 4
}

// baseOf is BaseFromByte's table: the Base of each A/C/G/T letter in either
// case, 4 for every other byte. A lookup costs no branch per letter, which
// matters in (k+1)-mer extraction's one-letter-at-a-time loop.
var baseOf = func() (t [256]uint8) {
	for i := range t {
		t[i] = 4
	}
	for b, c := range "ACGT" {
		t[c] = uint8(b)
		t[c+'a'-'A'] = uint8(b)
	}
	return t
}()

// MustBase is like BaseFromByte but panics on invalid input. It is intended
// for tests and literals.
func MustBase(c byte) Base {
	b, ok := BaseFromByte(c)
	if !ok {
		panic(fmt.Sprintf("dna: invalid base %q", c))
	}
	return b
}
