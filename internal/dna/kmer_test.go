package dna

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKmerEncodingMatchesPaper(t *testing.T) {
	// Figure 7(a): "ATTGC" encodes as ...00 00 11 11 10 01.
	m := ParseKmer("ATTGC")
	want := Kmer(0<<8 | 3<<6 | 3<<4 | 2<<2 | 1)
	if m != want {
		t.Errorf("ParseKmer(ATTGC) = %b, want %b", m, want)
	}
	if got := m.String(5); got != "ATTGC" {
		t.Errorf("String = %q", got)
	}
}

// seqViaAppend is Kmer.Seq as it was before it used a Builder: one
// copy-and-extend per base. Kept here as the reference.
func seqViaAppend(m Kmer, k int) Seq {
	s := NewSeq(k)
	for i := k - 1; i >= 0; i-- {
		s = s.Append(Base(uint64(m) >> (2 * uint(i)) & 3))
	}
	return s
}

func TestKmerSeqRoundTrip(t *testing.T) {
	for _, s := range []string{"A", "ACG", "TTTGGGCCAAA", "ACGTACGTACGTACGTACGTACGTACGTACG"} {
		k := len(s)
		m := ParseKmer(s)
		if got := m.Seq(k).String(); got != s {
			t.Errorf("Seq round trip of %q = %q", s, got)
		}
		if m2 := KmerFromSeq(ParseSeq(s), 0, k); m2 != m {
			t.Errorf("KmerFromSeq(%q) = %v, want %v", s, m2, m)
		}
	}

	// Every k a Kmer can hold (32 is a (k+1)-mer at MaxK): random words,
	// the all-A and all-T extremes, against the letters, the packed-integer
	// inverse and the old append loop — in one allocation.
	r := rand.New(rand.NewSource(32))
	for k := 1; k <= 32; k++ {
		mask := ^uint64(0) >> (64 - 2*uint(k))
		for _, word := range []uint64{0, mask, r.Uint64() & mask, r.Uint64() & mask, r.Uint64() & mask} {
			m := Kmer(word)
			got := m.Seq(k)
			if got.Len() != k || got.String() != m.String(k) {
				t.Fatalf("k=%d: Seq(%#x) = %q (len %d), want %q", k, word, got.String(), got.Len(), m.String(k))
			}
			if back := KmerFromSeq(got, 0, k); back != m {
				t.Fatalf("k=%d: KmerFromSeq(Seq(%#x)) = %#x", k, word, uint64(back))
			}
			if !got.Equal(seqViaAppend(m, k)) {
				t.Fatalf("k=%d: Seq(%#x) differs from the append-loop reference", k, word)
			}
			if allocs := testing.AllocsPerRun(20, func() { seqSink = m.Seq(k) }); allocs > 1 {
				t.Fatalf("k=%d: Kmer.Seq allocates %.0f times, want <= 1", k, allocs)
			}
		}
	}
}

var seqSink Seq

func TestKmerFromSeqOffset(t *testing.T) {
	s := ParseSeq("ACGTACG")
	if got := KmerFromSeq(s, 2, 3).String(3); got != "GTA" {
		t.Errorf("KmerFromSeq offset 2 = %q", got)
	}
}

func TestKmerAt(t *testing.T) {
	m := ParseKmer("GATTC")
	want := []Base{G, A, T, T, C}
	for i, w := range want {
		if got := m.At(i, 5); got != w {
			t.Errorf("At(%d) = %v, want %v", i, got, w)
		}
	}
	if m.First(5) != G || m.Last() != C {
		t.Error("First/Last wrong")
	}
}

func TestKmerAppendPrepend(t *testing.T) {
	m := ParseKmer("ACG")
	if got := m.AppendBase(T, 3).String(3); got != "CGT" {
		t.Errorf("AppendBase = %q", got)
	}
	if got := m.PrependBase(T, 3).String(3); got != "TAC" {
		t.Errorf("PrependBase = %q", got)
	}
}

func TestKmerReverseComplement(t *testing.T) {
	for _, tc := range []struct {
		in, want string
	}{
		{"A", "T"},
		{"GT", "AC"}, // Figure 6: "GT" and "AC" are reverse complements
		{"ATT", "AAT"},
		{"CAA", "TTG"},
		{"ACGTACGTACGTACGTACGTACGTACGTACG", "CGTACGTACGTACGTACGTACGTACGTACGT"},
	} {
		k := len(tc.in)
		if got := ParseKmer(tc.in).ReverseComplement(k).String(k); got != tc.want {
			t.Errorf("rc(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestKmerCanonical(t *testing.T) {
	// Figure 6: k-mers "GT" and "AC" both refer to DBG vertex "AC".
	gt, ac := ParseKmer("GT"), ParseKmer("AC")
	c1, was1 := gt.Canonical(2)
	if c1 != ac || was1 {
		t.Errorf("Canonical(GT) = %v,%v", c1.String(2), was1)
	}
	c2, was2 := ac.Canonical(2)
	if c2 != ac || !was2 {
		t.Errorf("Canonical(AC) = %v,%v", c2.String(2), was2)
	}
}

func TestValidK(t *testing.T) {
	for _, k := range []int{1, 3, 21, 31} {
		if err := ValidK(k); err != nil {
			t.Errorf("ValidK(%d) = %v", k, err)
		}
	}
	for _, k := range []int{0, -1, 2, 4, 30, 32, 33, 100} {
		if err := ValidK(k); err == nil {
			t.Errorf("ValidK(%d) accepted", k)
		}
	}
}

func randomKmer(r *rand.Rand, k int) Kmer {
	return Kmer(r.Uint64() & KmerMask(k))
}

func TestPropKmerRCMatchesSeqRC(t *testing.T) {
	// Word-level rc must agree with the per-base Seq implementation.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(MaxK)
		m := randomKmer(r, k)
		return m.ReverseComplement(k).Seq(k).Equal(m.Seq(k).ReverseComplement())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropKmerRCInvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(MaxK)
		m := randomKmer(r, k)
		return m.ReverseComplement(k).ReverseComplement(k) == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropOddKNoPalindromes(t *testing.T) {
	// With odd k no k-mer equals its own reverse complement — the invariant
	// ValidK protects, and the reason edge polarity is well defined.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := []int{1, 3, 5, 7, 15, 21, 31}[r.Intn(7)]
		m := randomKmer(r, k)
		return m.ReverseComplement(k) != m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestPropIntegerOrderIsLexOrder(t *testing.T) {
	// Integer comparison of Kmer values must coincide with lexicographic
	// comparison of their sequences (what Canonical relies on).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(MaxK)
		a, b := randomKmer(r, k), randomKmer(r, k)
		cmp := a.Seq(k).Compare(b.Seq(k))
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropAppendPrependInverse(t *testing.T) {
	// Following an out-edge then the matching in-edge returns to the start.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(MaxK-1)
		m := randomKmer(r, k)
		b := Base(r.Intn(4))
		first := m.First(k)
		return m.AppendBase(b, k).PrependBase(first, k) == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// First returns the leftmost base of m.
func (m Kmer) First(k int) Base { return m.At(0, k) }
