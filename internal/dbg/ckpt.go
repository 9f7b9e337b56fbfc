// Checkpoint codec methods: the graph-stage vertex types opt into the
// Pregel engine's binary checkpoint codec by implementing
// pregel.CheckpointAppender / pregel.CheckpointDecoder. Encodings are
// self-delimiting and composed from the pregel wire helpers. An item's
// neighbor ID is fixed 8-byte little-endian, because neighbors are k-mer
// codes, contig IDs and NullID, which occupy the full 64-bit range where
// varints buy nothing; a node's own ID is a uvarint, because a derived
// k-mer's is at most 62 bits. Decoders reject every encoding no value
// of the type produces, so a decoded value is always one the methods
// accept.

package dbg

import (
	"fmt"
	"math"
	"math/bits"

	"ppaassembler/internal/dna"
	"ppaassembler/internal/pregel"
)

// consumeUint32 reads a uvarint that must fit 32 bits.
func consumeUint32(data []byte, what string) (uint32, []byte, error) {
	v, data, err := pregel.ConsumeUvarint(data)
	if err != nil {
		return 0, nil, err
	}
	if v > math.MaxUint32 {
		return 0, nil, fmt.Errorf("dbg: corrupt encoding: %s %d overflows uint32", what, v)
	}
	return uint32(v), data, nil
}

// AppendCheckpoint implements pregel.CheckpointAppender: the neighbor, one
// flag byte (bit 0 In, bit 1 PSelf, bit 2 PNbr), the coverage and the
// neighbor length.
func (a *Adj) AppendCheckpoint(buf []byte) []byte {
	buf = pregel.AppendUint64(buf, uint64(a.Nbr))
	buf = append(buf, boolBit(a.In)|byte(a.PSelf)<<1|byte(a.PNbr)<<2)
	buf = pregel.AppendUvarint(buf, uint64(a.Cov))
	return pregel.AppendVarint(buf, int64(a.NbrLen))
}

// DecodeCheckpoint implements pregel.CheckpointDecoder. A polarity is L or
// H only, and the coverage and length must fit their fields.
func (a *Adj) DecodeCheckpoint(data []byte) ([]byte, error) {
	id, data, err := pregel.ConsumeUint64(data)
	if err != nil {
		return nil, err
	}
	a.Nbr = pregel.VertexID(id)
	if len(data) < 1 || data[0] > 7 {
		return nil, fmt.Errorf("dbg: corrupt Adj encoding: missing or invalid flags")
	}
	f := data[0]
	a.In, a.PSelf, a.PNbr = f&1 != 0, Polarity(f>>1&1), Polarity(f>>2&1)
	if a.Cov, data, err = consumeUint32(data[1:], "Adj coverage"); err != nil {
		return nil, err
	}
	nl, data, err := pregel.ConsumeVarint(data)
	if err != nil {
		return nil, err
	}
	if nl < math.MinInt32 || nl > math.MaxInt32 {
		return nil, fmt.Errorf("dbg: corrupt Adj encoding: neighbor length %d overflows int32", nl)
	}
	a.NbrLen = int32(nl)
	return data, nil
}

// Node encoding forms, the first byte of a node.
const (
	formDerived        = iota // derived k-mer: K, bitmap, one coverage per set bit
	formExplicitKmer          // explicit k-mer: sequence and items
	formExplicitContig        // explicit contig: sequence and items
)

// AppendCheckpoint implements pregel.CheckpointAppender: the form, the ID
// and coverage, then a derived k-mer's K, bitmap and coverages, or an
// explicit node's sequence and items.
func (n *Node) AppendCheckpoint(buf []byte) []byte {
	form := byte(formDerived)
	if n.Explicit != nil {
		form = formExplicitKmer + byte(n.Kind)
	}
	buf = append(buf, form)
	buf = pregel.AppendUvarint(buf, uint64(n.ID))
	buf = pregel.AppendUvarint(buf, uint64(n.Cov))
	if n.Explicit == nil {
		buf = append(buf, n.K)
		buf = pregel.AppendUvarint(buf, uint64(n.Bits))
		for _, c := range n.Covs[:n.Bits.Count()] {
			buf = pregel.AppendUvarint(buf, uint64(c))
		}
		return buf
	}
	buf = n.Seq.AppendBinary(buf)
	buf = pregel.AppendUvarint(buf, uint64(len(n.Adj)))
	for i := range n.Adj {
		buf = n.Adj[i].AppendCheckpoint(buf)
	}
	return buf
}

// DecodeCheckpoint implements pregel.CheckpointDecoder. A derived k-mer
// must have a valid K, an ID that is a k-mer code of that length, and at
// most InlineCovs items.
func (n *Node) DecodeCheckpoint(data []byte) ([]byte, error) {
	if len(data) < 1 || data[0] > formExplicitContig {
		return nil, fmt.Errorf("dbg: corrupt Node encoding: missing or invalid form")
	}
	form := data[0]
	*n = Node{}
	id, data, err := pregel.ConsumeUvarint(data[1:])
	if err != nil {
		return nil, err
	}
	n.ID = pregel.VertexID(id)
	if n.Cov, data, err = consumeUint32(data, "Node coverage"); err != nil {
		return nil, err
	}
	if form == formDerived {
		return n.decodeDerived(data)
	}
	n.Kind = NodeKind(form - formExplicitKmer)
	n.Explicit = &Explicit{}
	if data, err = n.Seq.DecodeBinary(data); err != nil {
		return nil, err
	}
	na, data, err := pregel.ConsumeUvarint(data)
	if err != nil {
		return nil, err
	}
	if uint64(len(data)) < na {
		return nil, fmt.Errorf("dbg: corrupt Node encoding: %d adjacency items in %d bytes", na, len(data))
	}
	if na > 0 {
		n.Adj = make([]Adj, na)
	}
	for i := range n.Adj {
		if data, err = n.Adj[i].DecodeCheckpoint(data); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// decodeDerived decodes a derived k-mer's K, bitmap and coverages.
func (n *Node) decodeDerived(data []byte) ([]byte, error) {
	if len(data) < 1 || dna.ValidK(int(data[0])) != nil {
		return nil, fmt.Errorf("dbg: corrupt Node encoding: missing or invalid k")
	}
	n.K = data[0]
	if uint64(n.ID)>>(2*uint(n.K)) != 0 {
		return nil, fmt.Errorf("dbg: corrupt Node encoding: ID %#x is no %d-mer", uint64(n.ID), n.K)
	}
	bm, data, err := consumeUint32(data[1:], "Node bitmap")
	if err != nil {
		return nil, err
	}
	if bits.OnesCount32(bm) > InlineCovs {
		return nil, fmt.Errorf("dbg: corrupt Node encoding: %d derived items, at most %d", bits.OnesCount32(bm), InlineCovs)
	}
	n.Bits = Bitmap32(bm)
	for i := range n.Bits.Count() {
		if n.Covs[i], data, err = consumeUint32(data, "Node item coverage"); err != nil {
			return nil, err
		}
	}
	return data, nil
}
