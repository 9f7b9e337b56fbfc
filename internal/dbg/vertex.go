package dbg

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
)

// MaxDegree is the most adjacency items a k-mer vertex of a de Bruijn graph
// can hold. Flipping an item to self polarity L (Property 1) names one of
// the k-mer's eight one-base extensions (four appended bases, four
// prepended), and an extension is one (k+1)-mer. A (k+1)-mer gives an
// endpoint at most two items (one per end), and both land on the same
// extension only when the (k+1)-mer is its own reverse complement. That
// forces the appended base to complement the k-mer's first base, or the
// prepended one its last, so at most two extensions carry two items:
// 8 + 2 = 10. Odd k reaches it (TestMaxDegreeVertex builds one).
const MaxDegree = 10

// KmerVertex is the memory-compact k-mer vertex produced by DBG
// construction: a 32-bit adjacency bitmap plus one coverage count per set
// bit (§IV-A). Coverage counts serialize as variable-length integers; in
// memory they sit inline, Covs[i] belonging to the i-th set bit in
// ascending bit order, so a vertex owns no heap object.
type KmerVertex struct {
	Adj  Bitmap32
	Covs [MaxDegree]uint32
}

// AddEdge records an adjacency item, accumulating coverage if the item is
// already present. It panics past MaxDegree items, which no set of
// (k+1)-mers produces.
func (v *KmerVertex) AddEdge(a AdjKmer) {
	i := bitIndex(a)
	r := v.Adj.rank(i)
	if v.Adj.Has(a) {
		v.Covs[r] += a.Cov
		return
	}
	n := v.Adj.Count()
	if n == MaxDegree {
		panic(fmt.Sprintf("dbg: k-mer vertex item %d past MaxDegree", n+1))
	}
	v.Adj = v.Adj.Set(a)
	copy(v.Covs[r+1:n+1], v.Covs[r:n])
	v.Covs[r] = a.Cov
}

// Merge folds another partially constructed vertex into v (the reduce step
// of DBG-construction phase (ii)).
func (v *KmerVertex) Merge(o KmerVertex) {
	for _, a := range o.Items() {
		v.AddEdge(a)
	}
}

// Items expands the bitmap into adjacency items with coverage, in ascending
// bit order.
func (v *KmerVertex) Items() []AdjKmer {
	out := make([]AdjKmer, 0, v.Adj.Count())
	for rest := uint32(v.Adj); rest != 0; rest &= rest - 1 {
		a := itemAt(bits.TrailingZeros32(rest))
		a.Cov = v.Covs[len(out)]
		out = append(out, a)
	}
	return out
}

// Degree returns the number of adjacency items.
func (v *KmerVertex) Degree() int { return v.Adj.Count() }

// EncodeCovs serializes the coverage list as uvarints (the paper's
// variable-length integers, which keep small counts at one byte).
func (v *KmerVertex) EncodeCovs() []byte {
	buf := make([]byte, 0, v.Degree())
	for _, c := range v.Covs[:v.Degree()] {
		buf = binary.AppendUvarint(buf, uint64(c))
	}
	return buf
}

// DecodeCovs parses a uvarint coverage list of the given count.
func DecodeCovs(b []byte, count int) ([]uint32, error) {
	out := make([]uint32, 0, count)
	for i := 0; i < count; i++ {
		c, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("dbg: truncated coverage list at item %d", i)
		}
		if c > 1<<32-1 {
			return nil, fmt.Errorf("dbg: coverage %d overflows uint32", c)
		}
		out = append(out, uint32(c))
		b = b[n:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("dbg: %d trailing bytes after coverage list", len(b))
	}
	return out, nil
}

// SortedItems returns Items sorted by encoded byte, a stable order for
// deterministic iteration in tests.
func (v *KmerVertex) SortedItems() []AdjKmer {
	items := v.Items()
	sort.Slice(items, func(i, j int) bool { return items[i].Encode() < items[j].Encode() })
	return items
}
