// Checkpoint codec methods: the scaffolding vertex and message types opt
// into the Pregel engine's binary checkpoint codec by implementing
// pregel.CheckpointAppender / pregel.CheckpointDecoder. Contig IDs are
// varint-packed (they are small dense indices, unlike the k-mer codes of
// the segment graph); gaps are float64 bit patterns. Decoding refuses an
// End other than L or R and a length or weight outside int32, so damaged
// state surfaces as an error instead of an index panic in a job or a
// silently truncated value.

package scaffold

import (
	"fmt"
	"math"

	"ppaassembler/internal/pregel"
)

// AppendCheckpoint implements pregel.CheckpointAppender.
func (l *Link) AppendCheckpoint(buf []byte) []byte {
	buf = pregel.AppendUvarint(buf, uint64(l.Nbr))
	buf = append(buf, byte(l.SelfEnd), byte(l.NbrEnd))
	buf = pregel.AppendVarint(buf, int64(l.Weight))
	return pregel.AppendUint64(buf, math.Float64bits(l.Gap))
}

// DecodeCheckpoint implements pregel.CheckpointDecoder.
func (l *Link) DecodeCheckpoint(data []byte) ([]byte, error) {
	id, data, err := pregel.ConsumeUvarint(data)
	if err != nil {
		return nil, err
	}
	l.Nbr = pregel.VertexID(id)
	if len(data) < 2 || data[0] > byte(R) || data[1] > byte(R) {
		return nil, fmt.Errorf("scaffold: corrupt Link encoding: missing or invalid ends")
	}
	l.SelfEnd, l.NbrEnd = End(data[0]), End(data[1])
	w, data, err := consumeInt32(data[2:], "Link weight")
	if err != nil {
		return nil, err
	}
	l.Weight = w
	bits, data, err := pregel.ConsumeUint64(data)
	if err != nil {
		return nil, err
	}
	l.Gap = math.Float64frombits(bits)
	return data, nil
}

// AppendCheckpoint implements pregel.CheckpointAppender.
func (v *SVertex) AppendCheckpoint(buf []byte) []byte {
	buf = pregel.AppendVarint(buf, int64(v.Len))
	buf = pregel.AppendUvarint(buf, uint64(len(v.Cand)))
	for i := range v.Cand {
		buf = v.Cand[i].AppendCheckpoint(buf)
	}
	for i := 0; i < 2; i++ {
		buf = v.Keep[i].AppendCheckpoint(buf)
		buf = pregel.AppendBool(buf, v.Has[i])
	}
	buf = pregel.AppendBool(buf, v.Assigned)
	buf = pregel.AppendBool(buf, v.Flip)
	buf = pregel.AppendUvarint(buf, uint64(v.Wave))
	buf = pregel.AppendUvarint(buf, uint64(v.Pred))
	return pregel.AppendUint64(buf, math.Float64bits(v.PredGap))
}

// DecodeCheckpoint implements pregel.CheckpointDecoder.
func (v *SVertex) DecodeCheckpoint(data []byte) ([]byte, error) {
	n, data, err := consumeInt32(data, "SVertex length")
	if err != nil {
		return nil, err
	}
	v.Len = n
	nc, data, err := pregel.ConsumeUvarint(data)
	if err != nil {
		return nil, err
	}
	if uint64(len(data)) < nc {
		return nil, fmt.Errorf("scaffold: corrupt SVertex encoding: %d links in %d bytes", nc, len(data))
	}
	v.Cand = nil
	if nc > 0 {
		v.Cand = make([]Link, nc)
	}
	for i := range v.Cand {
		if data, err = v.Cand[i].DecodeCheckpoint(data); err != nil {
			return nil, err
		}
	}
	for i := 0; i < 2; i++ {
		if data, err = v.Keep[i].DecodeCheckpoint(data); err != nil {
			return nil, err
		}
		if v.Has[i], data, err = pregel.ConsumeBool(data); err != nil {
			return nil, err
		}
	}
	if v.Assigned, data, err = pregel.ConsumeBool(data); err != nil {
		return nil, err
	}
	if v.Flip, data, err = pregel.ConsumeBool(data); err != nil {
		return nil, err
	}
	id, data, err := pregel.ConsumeUvarint(data)
	if err != nil {
		return nil, err
	}
	v.Wave = pregel.VertexID(id)
	if id, data, err = pregel.ConsumeUvarint(data); err != nil {
		return nil, err
	}
	v.Pred = pregel.VertexID(id)
	bits, data, err := pregel.ConsumeUint64(data)
	if err != nil {
		return nil, err
	}
	v.PredGap = math.Float64frombits(bits)
	return data, nil
}

// AppendCheckpoint implements pregel.CheckpointAppender.
func (m *SMsg) AppendCheckpoint(buf []byte) []byte {
	buf = append(buf, m.Kind, byte(m.FromEnd), byte(m.ToEnd))
	buf = pregel.AppendUvarint(buf, uint64(m.From))
	buf = pregel.AppendUvarint(buf, uint64(m.Wave))
	return pregel.AppendUint64(buf, math.Float64bits(m.Gap))
}

// DecodeCheckpoint implements pregel.CheckpointDecoder.
func (m *SMsg) DecodeCheckpoint(data []byte) ([]byte, error) {
	if len(data) < 3 || data[1] > byte(R) || data[2] > byte(R) {
		return nil, fmt.Errorf("scaffold: corrupt SMsg encoding: missing or invalid ends")
	}
	m.Kind, m.FromEnd, m.ToEnd = data[0], End(data[1]), End(data[2])
	id, data, err := pregel.ConsumeUvarint(data[3:])
	if err != nil {
		return nil, err
	}
	m.From = pregel.VertexID(id)
	if id, data, err = pregel.ConsumeUvarint(data); err != nil {
		return nil, err
	}
	m.Wave = pregel.VertexID(id)
	bits, data, err := pregel.ConsumeUint64(data)
	if err != nil {
		return nil, err
	}
	m.Gap = math.Float64frombits(bits)
	return data, nil
}

// consumeInt32 reads a varint that must fit an int32.
func consumeInt32(data []byte, what string) (int32, []byte, error) {
	x, data, err := pregel.ConsumeVarint(data)
	if err != nil {
		return 0, nil, err
	}
	if x != int64(int32(x)) {
		return 0, nil, fmt.Errorf("scaffold: corrupt %s encoding: %d overflows int32", what, x)
	}
	return int32(x), data, nil
}
