package dbg

import (
	"fmt"
	"math/bits"
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
