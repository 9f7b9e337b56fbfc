// Checkpoint codec methods: the graph-stage vertex types opt into the
// Pregel engine's binary checkpoint codec by implementing
// pregel.CheckpointAppender / pregel.CheckpointDecoder. Encodings are
// self-delimiting and composed from the pregel wire helpers; vertex IDs are
// fixed 8-byte little-endian because they are canonical k-mer codes (and
// NullID), which occupy the full 64-bit range where varints buy nothing.

package dbg

import (
	"fmt"

	"ppaassembler/internal/pregel"
)

// AppendCheckpoint implements pregel.CheckpointAppender.
func (a *Adj) AppendCheckpoint(buf []byte) []byte {
	buf = pregel.AppendUint64(buf, uint64(a.Nbr))
	buf = pregel.AppendBool(buf, a.In)
	buf = append(buf, byte(a.PSelf), byte(a.PNbr))
	buf = pregel.AppendUvarint(buf, uint64(a.Cov))
	return pregel.AppendVarint(buf, int64(a.NbrLen))
}

// DecodeCheckpoint implements pregel.CheckpointDecoder.
func (a *Adj) DecodeCheckpoint(data []byte) ([]byte, error) {
	id, data, err := pregel.ConsumeUint64(data)
	if err != nil {
		return nil, err
	}
	a.Nbr = pregel.VertexID(id)
	if a.In, data, err = pregel.ConsumeBool(data); err != nil {
		return nil, err
	}
	if len(data) < 2 {
		return nil, fmt.Errorf("dbg: corrupt Adj encoding: truncated polarity")
	}
	a.PSelf, a.PNbr = Polarity(data[0]), Polarity(data[1])
	data = data[2:]
	cov, data, err := pregel.ConsumeUvarint(data)
	if err != nil {
		return nil, err
	}
	a.Cov = uint32(cov)
	nl, data, err := pregel.ConsumeVarint(data)
	if err != nil {
		return nil, err
	}
	a.NbrLen = int32(nl)
	return data, nil
}

// AppendCheckpoint implements pregel.CheckpointAppender.
func (n *Node) AppendCheckpoint(buf []byte) []byte {
	buf = append(buf, byte(n.Kind))
	buf = n.Seq.AppendBinary(buf)
	buf = pregel.AppendUvarint(buf, uint64(n.Cov))
	buf = pregel.AppendUvarint(buf, uint64(len(n.Adj)))
	for i := range n.Adj {
		buf = n.Adj[i].AppendCheckpoint(buf)
	}
	return buf
}

// DecodeCheckpoint implements pregel.CheckpointDecoder.
func (n *Node) DecodeCheckpoint(data []byte) ([]byte, error) {
	if len(data) < 1 {
		return nil, fmt.Errorf("dbg: corrupt Node encoding: truncated kind")
	}
	n.Kind = NodeKind(data[0])
	data, err := n.Seq.DecodeBinary(data[1:])
	if err != nil {
		return nil, err
	}
	cov, data, err := pregel.ConsumeUvarint(data)
	if err != nil {
		return nil, err
	}
	n.Cov = uint32(cov)
	na, data, err := pregel.ConsumeUvarint(data)
	if err != nil {
		return nil, err
	}
	if uint64(len(data)) < na {
		return nil, fmt.Errorf("dbg: corrupt Node encoding: %d adjacency items in %d bytes", na, len(data))
	}
	n.Adj = nil
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

// AppendCheckpoint implements pregel.CheckpointAppender.
func (v *KmerVertex) AppendCheckpoint(buf []byte) []byte {
	buf = pregel.AppendUvarint(buf, uint64(v.Adj))
	buf = pregel.AppendUvarint(buf, uint64(len(v.Covs)))
	for _, c := range v.Covs {
		buf = pregel.AppendUvarint(buf, uint64(c))
	}
	return buf
}

// DecodeCheckpoint implements pregel.CheckpointDecoder.
func (v *KmerVertex) DecodeCheckpoint(data []byte) ([]byte, error) {
	adj, data, err := pregel.ConsumeUvarint(data)
	if err != nil {
		return nil, err
	}
	v.Adj = Bitmap32(adj)
	nc, data, err := pregel.ConsumeUvarint(data)
	if err != nil {
		return nil, err
	}
	if uint64(len(data)) < nc {
		return nil, fmt.Errorf("dbg: corrupt KmerVertex encoding: %d coverages in %d bytes", nc, len(data))
	}
	v.Covs = nil
	if nc > 0 {
		v.Covs = make([]uint32, nc)
	}
	for i := range v.Covs {
		c, rest, err := pregel.ConsumeUvarint(data)
		if err != nil {
			return nil, err
		}
		v.Covs[i], data = uint32(c), rest
	}
	return data, nil
}
