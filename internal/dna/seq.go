package dna

import "strings"

// Seq is an immutable DNA sequence packed 2 bits per base, 32 bases per
// uint64 word. Base i occupies bits [2i, 2i+2) of word i/32.
//
// Contig vertices store their (arbitrarily long) sequences as Seq values,
// matching the paper's variable-length bitmap contig format (Figure 9).
// Construct sequences incrementally with Builder; the value methods on Seq
// never mutate shared state.
type Seq struct {
	words []uint64
	n     int
}

// Builder assembles a Seq one base (or subsequence) at a time in amortized
// O(1) per base. The zero value is ready to use.
type Builder struct {
	words []uint64
	n     int
}

// Grow reserves capacity for n additional bases.
func (b *Builder) Grow(n int) {
	need := (b.n + n + 31) / 32
	if need <= cap(b.words) {
		return
	}
	w := make([]uint64, len(b.words), need)
	copy(w, b.words)
	b.words = w
}

// Append adds one base.
func (b *Builder) Append(base Base) {
	if b.n&31 == 0 {
		b.words = append(b.words, uint64(base))
	} else {
		b.words[b.n>>5] |= uint64(base) << (uint(b.n&31) * 2)
	}
	b.n++
}

// AppendSeq adds all bases of s.
func (b *Builder) AppendSeq(s Seq) {
	b.Grow(s.n)
	for i := 0; i < s.n; i++ {
		b.Append(s.At(i))
	}
}

// Len returns the number of bases appended so far.
func (b *Builder) Len() int { return b.n }

// Seq finalizes the builder. The builder must not be appended to afterwards
// (the returned Seq aliases its storage); Reset it to build another sequence.
func (b *Builder) Seq() Seq { return Seq{words: b.words, n: b.n} }

// Reset clears the builder for reuse without retaining storage.
func (b *Builder) Reset() { b.words, b.n = nil, 0 }

// NewSeq returns an empty sequence (kept for symmetry; Builder is the way to
// construct long sequences).
func NewSeq(n int) Seq {
	return Seq{words: make([]uint64, 0, (n+31)/32)}
}

// ParseSeq converts an ACGT string into a Seq. It panics on characters
// outside ACGT (case-insensitive); reads containing 'N' must be split by the
// caller before parsing (the DBG-construction map phase does this).
func ParseSeq(s string) Seq {
	var b Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		b.Append(MustBase(s[i]))
	}
	return b.Seq()
}

// Len returns the number of bases in s.
func (s Seq) Len() int { return s.n }

// At returns base i. It panics if i is out of range.
func (s Seq) At(i int) Base {
	if i < 0 || i >= s.n {
		panic("dna: Seq index out of range")
	}
	return Base(s.words[i>>5] >> (uint(i&31) * 2) & 3)
}

// Append returns a fresh sequence equal to s extended by one base. It copies
// s (O(len)); use Builder when appending in a loop.
func (s Seq) Append(b Base) Seq {
	var bld Builder
	bld.Grow(s.n + 1)
	bld.AppendSeq(s)
	bld.Append(b)
	return bld.Seq()
}

// Clone returns a deep copy of s.
func (s Seq) Clone() Seq {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return Seq{words: w, n: s.n}
}

// Slice returns the subsequence [lo, hi) as a fresh Seq.
func (s Seq) Slice(lo, hi int) Seq {
	if lo < 0 || hi > s.n || lo > hi {
		panic("dna: Seq slice bounds out of range")
	}
	var b Builder
	b.Grow(hi - lo)
	for i := lo; i < hi; i++ {
		b.Append(s.At(i))
	}
	return b.Seq()
}

// Concat returns s followed by t.
func (s Seq) Concat(t Seq) Seq {
	var b Builder
	b.Grow(s.n + t.n)
	b.AppendSeq(s)
	b.AppendSeq(t)
	return b.Seq()
}

// ReverseComplement returns the reverse complement of s.
func (s Seq) ReverseComplement() Seq {
	var b Builder
	b.Grow(s.n)
	for i := s.n - 1; i >= 0; i-- {
		b.Append(s.At(i).Complement())
	}
	return b.Seq()
}

// String renders s as an ACGT string.
func (s Seq) String() string {
	var b strings.Builder
	b.Grow(s.n)
	for i := 0; i < s.n; i++ {
		b.WriteByte(s.At(i).Byte())
	}
	return b.String()
}

// Equal reports whether s and t have identical length and content.
func (s Seq) Equal(t Seq) bool {
	if s.n != t.n {
		return false
	}
	full := s.n >> 5
	for i := 0; i < full; i++ {
		if s.words[i] != t.words[i] {
			return false
		}
	}
	if rem := uint(s.n & 31); rem != 0 {
		mask := (uint64(1) << (rem * 2)) - 1
		if s.words[full]&mask != t.words[full]&mask {
			return false
		}
	}
	return true
}

// Compare orders sequences lexicographically by base value (A<C<G<T), with a
// shorter prefix ordering before its extensions. It returns -1, 0 or +1.
func (s Seq) Compare(t Seq) int {
	n := s.n
	if t.n < n {
		n = t.n
	}
	for i := 0; i < n; i++ {
		a, b := s.At(i), t.At(i)
		if a != b {
			if a < b {
				return -1
			}
			return 1
		}
	}
	switch {
	case s.n < t.n:
		return -1
	case s.n > t.n:
		return 1
	}
	return 0
}

// GC returns the number of G and C bases in s.
func (s Seq) GC() int {
	gc := 0
	for i := 0; i < s.n; i++ {
		if b := s.At(i); b == G || b == C {
			gc++
		}
	}
	return gc
}

// Canonical returns the lexicographically smaller of s and its reverse
// complement, together with a flag that is true when s itself was canonical.
func (s Seq) Canonical() (canon Seq, wasCanonical bool) {
	rc := s.ReverseComplement()
	if s.Compare(rc) <= 0 {
		return s, true
	}
	return rc, false
}
