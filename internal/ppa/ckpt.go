// Checkpoint codec methods: the PPA vertex and message types opt into the
// Pregel engine's binary checkpoint codec by implementing
// pregel.CheckpointAppender / pregel.CheckpointDecoder. Vertex IDs are
// fixed 8-byte little-endian because NullID (^0) and the flipped-ID space
// make varints pay worst case.

package ppa

import (
	"fmt"

	"ppaassembler/internal/pregel"
)

// AppendCheckpoint implements pregel.CheckpointAppender.
func (v *LRVertex) AppendCheckpoint(buf []byte) []byte {
	buf = pregel.AppendVarint(buf, v.Val)
	buf = pregel.AppendVarint(buf, v.Sum)
	return pregel.AppendUint64(buf, uint64(v.Pred))
}

// DecodeCheckpoint implements pregel.CheckpointDecoder.
func (v *LRVertex) DecodeCheckpoint(data []byte) ([]byte, error) {
	var err error
	if v.Val, data, err = pregel.ConsumeVarint(data); err != nil {
		return nil, err
	}
	if v.Sum, data, err = pregel.ConsumeVarint(data); err != nil {
		return nil, err
	}
	id, data, err := pregel.ConsumeUint64(data)
	if err != nil {
		return nil, err
	}
	v.Pred = pregel.VertexID(id)
	return data, nil
}

// AppendCheckpoint implements pregel.CheckpointAppender.
func (m *LRMsg) AppendCheckpoint(buf []byte) []byte {
	buf = pregel.AppendUint64(buf, uint64(m.From))
	buf = pregel.AppendVarint(buf, m.Sum)
	buf = pregel.AppendUint64(buf, uint64(m.Pred))
	return pregel.AppendBool(buf, m.Resp)
}

// DecodeCheckpoint implements pregel.CheckpointDecoder.
func (m *LRMsg) DecodeCheckpoint(data []byte) ([]byte, error) {
	id, data, err := pregel.ConsumeUint64(data)
	if err != nil {
		return nil, err
	}
	m.From = pregel.VertexID(id)
	if m.Sum, data, err = pregel.ConsumeVarint(data); err != nil {
		return nil, err
	}
	if id, data, err = pregel.ConsumeUint64(data); err != nil {
		return nil, err
	}
	m.Pred = pregel.VertexID(id)
	if m.Resp, data, err = pregel.ConsumeBool(data); err != nil {
		return nil, err
	}
	return data, nil
}

// AppendCheckpoint implements pregel.CheckpointAppender.
func (v *SVVertex) AppendCheckpoint(buf []byte) []byte {
	buf = pregel.AppendUint64(buf, uint64(v.D))
	buf = pregel.AppendUint64(buf, uint64(v.DD))
	buf = pregel.AppendUvarint(buf, uint64(len(v.Nbrs)))
	for _, n := range v.Nbrs {
		buf = pregel.AppendUint64(buf, uint64(n))
	}
	return buf
}

// DecodeCheckpoint implements pregel.CheckpointDecoder.
func (v *SVVertex) DecodeCheckpoint(data []byte) ([]byte, error) {
	id, data, err := pregel.ConsumeUint64(data)
	if err != nil {
		return nil, err
	}
	v.D = pregel.VertexID(id)
	if id, data, err = pregel.ConsumeUint64(data); err != nil {
		return nil, err
	}
	v.DD = pregel.VertexID(id)
	nn, data, err := pregel.ConsumeUvarint(data)
	if err != nil {
		return nil, err
	}
	if uint64(len(data)) < 8*nn {
		return nil, fmt.Errorf("ppa: corrupt SVVertex encoding: %d neighbors in %d bytes", nn, len(data))
	}
	v.Nbrs = nil
	if nn > 0 {
		v.Nbrs = make([]pregel.VertexID, nn)
	}
	for i := range v.Nbrs {
		if id, data, err = pregel.ConsumeUint64(data); err != nil {
			return nil, err
		}
		v.Nbrs[i] = pregel.VertexID(id)
	}
	return data, nil
}

// AppendCheckpoint implements pregel.CheckpointAppender.
func (m *SVMsg) AppendCheckpoint(buf []byte) []byte {
	buf = append(buf, byte(m.Kind))
	buf = pregel.AppendUint64(buf, uint64(m.From))
	return pregel.AppendUint64(buf, uint64(m.ID))
}

// DecodeCheckpoint implements pregel.CheckpointDecoder.
func (m *SVMsg) DecodeCheckpoint(data []byte) ([]byte, error) {
	if len(data) < 1 {
		return nil, fmt.Errorf("ppa: corrupt SVMsg encoding: truncated kind")
	}
	m.Kind = svKind(data[0])
	id, data, err := pregel.ConsumeUint64(data[1:])
	if err != nil {
		return nil, err
	}
	m.From = pregel.VertexID(id)
	if id, data, err = pregel.ConsumeUint64(data); err != nil {
		return nil, err
	}
	m.ID = pregel.VertexID(id)
	return data, nil
}
