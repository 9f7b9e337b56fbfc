package dbg

import (
	"iter"
	"math/bits"
	"slices"

	"ppaassembler/internal/dna"
	"ppaassembler/internal/pregel"
)

// Adj is an adjacency item of a segment node, identifying the neighbor by
// vertex ID rather than by base (the uncompressed representation used by
// operations ②–⑤, where neighbors may be k-mers or contigs). Nbr may be
// NullID for a contig's dead end.
type Adj struct {
	Nbr         pregel.VertexID
	In          bool
	PSelf, PNbr Polarity
	Cov         uint32
	// NbrLen caches the neighbor's sequence length (k for k-mer
	// neighbors); tip removing uses it to accumulate dangling-path length
	// without fetching neighbor sequences.
	NbrLen int32
}

// Flip applies Property 1 to the item (see AdjKmer.Flip; no base to
// complement here because the neighbor is identified by ID).
func (a Adj) Flip() Adj {
	a.In = !a.In
	a.PSelf = a.PSelf.Flip()
	a.PNbr = a.PNbr.Flip()
	return a
}

// Normalized returns the item flipped, if needed, so PSelf equals want.
func (a Adj) Normalized(want Polarity) Adj {
	if a.PSelf != want {
		return a.Flip()
	}
	return a
}

// SameEdge reports whether two items describe the same edge from the same
// vertex (identical up to Property-1 flipping), ignoring coverage.
func (a Adj) SameEdge(b Adj) bool {
	a.Cov, b.Cov = 0, 0
	a.NbrLen, b.NbrLen = 0, 0
	return a == b || a == b.Flip()
}

// NodeKind distinguishes the two vertex populations of §IV-A.
type NodeKind uint8

// Node kinds.
const (
	KindKmer NodeKind = iota
	KindContig
)

// NodeType is the vertex typing of §IV-A ("Vertex Types").
type NodeType uint8

// Node types. TypeIsolated covers the "isolated contig" case the paper
// folds into ⟨1⟩ (both ends dead); it is reported separately because tip
// removing treats it by total length.
const (
	TypeOne      NodeType = iota // ⟨1⟩: one real neighbor — a dead end
	TypeOneOne                   // ⟨1-1⟩: unambiguous path interior
	TypeManyAny                  // ⟨m-n⟩: ambiguous
	TypeIsolated                 // no real neighbors
)

func (t NodeType) String() string {
	switch t {
	case TypeOne:
		return "<1>"
	case TypeOneOne:
		return "<1-1>"
	case TypeManyAny:
		return "<m-n>"
	default:
		return "<isolated>"
	}
}

// InlineCovs is how many adjacency items a derived k-mer node holds inline.
// Nearly every k-mer of an assembly graph has two; a k-mer with more than
// InlineCovs items is built explicit instead (KmerNode).
const InlineCovs = 4

// Node is the unified "segment" vertex the assembly operations run on: a
// k-mer (sequence of length k) or a contig (sequence of length ≥ k). Two
// adjacent segments always overlap by k-1 bases, which is what makes the
// second labeling/merging round (mixed k-mers and contigs, arrow ⑥ of
// Figure 10) identical in structure to the first.
//
// A node takes one of two forms. A derived k-mer is the paper's k-mer
// vertex (§IV-A): its sequence is its ID (KmerOf) and its adjacency items
// are the set bits of Bits, each with its coverage in Covs, so it owns no
// heap object. Every other node is explicit: its sequence and items sit
// out of line, in Explicit. Contigs are explicit, and so is a k-mer that
// gains an item the bitmap cannot express (an edge to a contig, AddItem)
// or that has more than InlineCovs items. Oriented, Len and the item
// methods read both forms alike, the items in the same order; the promoted
// fields Seq and Adj exist on explicit nodes only.
type Node struct {
	// ID is the vertex's own ID.
	ID pregel.VertexID
	// Explicit holds an explicit node's sequence and items; nil on a
	// derived k-mer.
	*Explicit
	// Cov is the contig coverage (minimum merged edge coverage, §IV-A);
	// for k-mer nodes it is the minimum incident edge coverage.
	Cov uint32
	// Bits and Covs are a derived k-mer's items: item i is the i-th set
	// bit in ascending bit order and Covs[i] its coverage. Covs past the
	// last item are zero, and both are zero on an explicit node.
	Bits Bitmap32
	Covs [InlineCovs]uint32
	Kind NodeKind
	// K is a derived k-mer's length (zero on an explicit node).
	K uint8
}

// Explicit is an explicit node's out-of-line part.
type Explicit struct {
	// Seq is the stored orientation: the canonical form for k-mers, the
	// merge orientation for contigs (polarity L refers to this form).
	Seq dna.Seq
	// Adj lists incident edges. Contig nodes always have exactly two
	// items (index 0 = the in-edge of the stored orientation, index 1 =
	// the out-edge), either of which may point at NullID.
	Adj []Adj
}

// NewNode builds an explicit node: a contig, or a k-mer given by its
// sequence and items. The node keeps adj.
func NewNode(id pregel.VertexID, kind NodeKind, seq dna.Seq, cov uint32, adj []Adj) Node {
	return Node{ID: id, Kind: kind, Cov: cov, Explicit: &Explicit{Seq: seq, Adj: adj}}
}

// Len returns the node's sequence length in bases.
func (n *Node) Len() int {
	if n.Explicit != nil {
		return n.Seq.Len()
	}
	return int(n.K)
}

// Degree returns the number of adjacency items, NULL ends included.
func (n *Node) Degree() int {
	if n.Explicit != nil {
		return len(n.Adj)
	}
	return n.Bits.Count()
}

// Items iterates over the adjacency items with their indices.
func (n *Node) Items() iter.Seq2[int, Adj] {
	return func(yield func(int, Adj) bool) {
		if n.Explicit != nil {
			for i, a := range n.Adj {
				if !yield(i, a) {
					return
				}
			}
			return
		}
		self, k := KmerOf(n.ID), int(n.K)
		i := 0
		for rest := uint32(n.Bits); rest != 0; rest &= rest - 1 {
			if !yield(i, kmerItem(self, k, bits.TrailingZeros32(rest), n.Covs[i])) {
				return
			}
			i++
		}
	}
}

// kmerItem resolves bitmap bit of k-mer self, with coverage cov, to its
// adjacency item.
func kmerItem(self dna.Kmer, k, bit int, cov uint32) Adj {
	a := itemAt(bit)
	return Adj{
		Nbr:    KmerID(a.Neighbor(self, k)),
		In:     a.In,
		PSelf:  a.PSelf,
		PNbr:   a.PNbr,
		Cov:    cov,
		NbrLen: int32(k),
	}
}

// RealDegree counts non-NULL adjacency items.
func (n *Node) RealDegree() int {
	d := 0
	for _, a := range n.Items() {
		if a.Nbr != NullID {
			d++
		}
	}
	return d
}

// RealAdj returns the non-NULL adjacency items.
func (n *Node) RealAdj() []Adj {
	out := make([]Adj, 0, n.Degree())
	for _, a := range n.Items() {
		if a.Nbr != NullID {
			out = append(out, a)
		}
	}
	return out
}

// firstReal returns the node's first two real adjacency items and its real
// degree, in one pass over the items and without allocating.
func (n *Node) firstReal() (first [2]Adj, deg int) {
	for _, a := range n.Items() {
		if a.Nbr == NullID {
			continue
		}
		if deg < 2 {
			first[deg] = a
		}
		deg++
	}
	return first, deg
}

// Type classifies the node per §IV-A: ⟨1-1⟩ requires exactly two real
// neighbors that, once both items are normalized to the same self-side
// polarity (possible by Property 1), form one in-edge and one out-edge.
func (n *Node) Type() NodeType {
	real, deg := n.firstReal()
	switch deg {
	case 0:
		return TypeIsolated
	case 1:
		return TypeOne
	case 2:
		a := real[0].Normalized(L)
		b := real[1].Normalized(L)
		if a.In != b.In {
			return TypeOneOne
		}
		return TypeManyAny
	default:
		return TypeManyAny
	}
}

// InOut returns the in-item and out-item of a ⟨1-1⟩ node after normalizing
// both to self polarity p. It panics if the node is not ⟨1-1⟩.
func (n *Node) InOut(p Polarity) (in, out Adj) {
	real, deg := n.firstReal()
	if deg != 2 {
		panic("dbg: InOut on non-<1-1> node")
	}
	a, b := real[0].Normalized(p), real[1].Normalized(p)
	if a.In == b.In {
		panic("dbg: InOut on ambiguous node")
	}
	if a.In {
		return a, b
	}
	return b, a
}

// Oriented returns the node's sequence in orientation p (L = the stored
// form: the canonical one for k-mers, the merge orientation for contigs).
func (n *Node) Oriented(p Polarity) dna.Seq {
	var seq dna.Seq
	if n.Explicit != nil {
		seq = n.Seq
	} else {
		seq = KmerOf(n.ID).Seq(int(n.K))
	}
	if p == L {
		return seq
	}
	return seq.ReverseComplement()
}

// RemoveEdgeTo deletes all adjacency items pointing at nbr and reports how
// many were removed. For contigs the items are replaced by NULL ends so the
// invariant of two items holds.
func (n *Node) RemoveEdgeTo(nbr pregel.VertexID) int {
	removed := 0
	if n.Explicit == nil {
		self, k := KmerOf(n.ID), int(n.K)
		var keep Bitmap32
		j := 0
		for i, rest := 0, uint32(n.Bits); rest != 0; i, rest = i+1, rest&(rest-1) {
			bit := bits.TrailingZeros32(rest)
			if kmerItem(self, k, bit, 0).Nbr == nbr {
				removed++
				continue
			}
			keep |= 1 << bit
			n.Covs[j] = n.Covs[i]
			j++
		}
		n.Bits = keep
		clear(n.Covs[j:])
		return removed
	}
	if n.Kind == KindContig {
		for i := range n.Adj {
			if n.Adj[i].Nbr == nbr {
				n.Adj[i].Nbr = NullID
				n.Adj[i].Cov = 0
				removed++
			}
		}
		return removed
	}
	out := n.Adj[:0]
	for _, a := range n.Adj {
		if a.Nbr == nbr {
			removed++
			continue
		}
		out = append(out, a)
	}
	n.Adj = out
	return removed
}

// AddItem appends an adjacency item, making a derived k-mer explicit.
func (n *Node) AddItem(a Adj) {
	if n.Explicit == nil {
		adj := make([]Adj, 0, n.Degree()+1)
		for _, b := range n.Items() {
			adj = append(adj, b)
		}
		*n = NewNode(n.ID, n.Kind, n.Oriented(L), n.Cov, adj)
	}
	n.Adj = append(n.Adj, a)
}

// Filtered returns a copy of the node keeping item i only if bit i of keep
// is set. The copy shares nothing with n.
func (n *Node) Filtered(keep uint32) Node {
	out := *n
	if n.Explicit == nil {
		out.Bits, out.Covs = 0, [InlineCovs]uint32{}
		j := 0
		for i, rest := 0, uint32(n.Bits); rest != 0; i, rest = i+1, rest&(rest-1) {
			if keep>>i&1 != 0 {
				out.Bits |= 1 << bits.TrailingZeros32(rest)
				out.Covs[j] = n.Covs[i]
				j++
			}
		}
		return out
	}
	var adj []Adj
	for i, a := range n.Adj {
		if keep>>i&1 != 0 {
			adj = append(adj, a)
		}
	}
	out.Explicit = &Explicit{Seq: n.Seq, Adj: adj}
	return out
}

// KmerNode builds a segment node from a compact KmerVertex (the convert
// UDF between operation ① and operation ②): a derived k-mer that keeps the
// vertex's bitmap and coverages, or an explicit one, with the same items,
// past InlineCovs items.
func KmerNode(id pregel.VertexID, v *KmerVertex, k int) Node {
	deg := v.Degree()
	var cov uint32
	if deg > 0 {
		cov = slices.Min(v.Covs[:deg])
	}
	if deg <= InlineCovs {
		n := Node{ID: id, Kind: KindKmer, K: uint8(k), Bits: v.Adj, Cov: cov}
		copy(n.Covs[:], v.Covs[:deg])
		return n
	}
	self := KmerOf(id)
	adj := make([]Adj, 0, deg)
	for rest := uint32(v.Adj); rest != 0; rest &= rest - 1 {
		adj = append(adj, kmerItem(self, k, bits.TrailingZeros32(rest), v.Covs[len(adj)]))
	}
	return NewNode(id, KindKmer, self.Seq(k), cov, adj)
}
