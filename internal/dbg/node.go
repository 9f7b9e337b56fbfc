package dbg

import (
	"math/bits"

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

// Node is the unified "segment" vertex the assembly operations run on: a
// k-mer (Seq of length k) or a contig (Seq of length ≥ k). Two adjacent
// segments always overlap by k-1 bases, which is what makes the second
// labeling/merging round (mixed k-mers and contigs, arrow ⑥ of Figure 10)
// identical in structure to the first.
type Node struct {
	Kind NodeKind
	// Seq is the stored orientation: the canonical form for k-mers, the
	// merge orientation for contigs (polarity L refers to this form).
	Seq dna.Seq
	// Cov is the contig coverage (minimum merged edge coverage, §IV-A);
	// for k-mer nodes it is the minimum incident edge coverage.
	Cov uint32
	// Adj lists incident edges. Contig nodes always have exactly two
	// items (index 0 = the in-edge of the stored orientation, index 1 =
	// the out-edge), either of which may point at NullID.
	Adj []Adj
}

// RealDegree counts non-NULL adjacency items.
func (n *Node) RealDegree() int {
	d := 0
	for _, a := range n.Adj {
		if a.Nbr != NullID {
			d++
		}
	}
	return d
}

// RealAdj returns the non-NULL adjacency items.
func (n *Node) RealAdj() []Adj {
	out := make([]Adj, 0, len(n.Adj))
	for _, a := range n.Adj {
		if a.Nbr != NullID {
			out = append(out, a)
		}
	}
	return out
}

// firstReal returns the node's first two real adjacency items and its real
// degree, in one pass over Adj and without allocating.
func (n *Node) firstReal() (first [2]Adj, deg int) {
	for _, a := range n.Adj {
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

// Oriented returns the node's sequence in orientation p (L = stored form).
func (n *Node) Oriented(p Polarity) dna.Seq {
	if p == L {
		return n.Seq
	}
	return n.Seq.ReverseComplement()
}

// RemoveEdgeTo deletes all adjacency items pointing at nbr and reports how
// many were removed. For contigs the items are replaced by NULL ends so the
// invariant len(Adj) == 2 holds.
func (n *Node) RemoveEdgeTo(nbr pregel.VertexID) int {
	removed := 0
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

// KmerNode builds a segment node from a compact KmerVertex, resolving each
// bitmap item to its neighbor ID (this is the convert UDF between operation
// ① and operation ②).
func KmerNode(id pregel.VertexID, v *KmerVertex, k int) Node {
	self := KmerOf(id)
	n := Node{Kind: KindKmer, Seq: self.Seq(k)}
	if deg := v.Adj.Count(); deg > 0 {
		n.Adj = make([]Adj, 0, deg)
	}
	for rest := uint32(v.Adj); rest != 0; rest &= rest - 1 {
		a := itemAt(bits.TrailingZeros32(rest))
		cov := v.Covs[len(n.Adj)]
		if len(n.Adj) == 0 || cov < n.Cov {
			n.Cov = cov
		}
		n.Adj = append(n.Adj, Adj{
			Nbr:    KmerID(a.Neighbor(self, k)),
			In:     a.In,
			PSelf:  a.PSelf,
			PNbr:   a.PNbr,
			Cov:    cov,
			NbrLen: int32(k),
		})
	}
	return n
}
