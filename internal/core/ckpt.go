// Checkpoint codec methods: VData, svVertex, Msg, labelMsg and svMsg carry
// the Pregel engine's binary value codec by implementing
// pregel.CheckpointAppender / pregel.CheckpointDecoder, which segment-graph
// jobs need to checkpoint. VData writes its node, then the ambiguity mask,
// then the labeling and tip state, whatever the declaration order; the
// messages write their one-byte fields first. Vertex IDs are fixed 8-byte
// little-endian in svVertex, Msg and labelMsg (flipped and contig IDs span
// the full 64-bit range, where varints buy nothing), and uvarints in VData
// and svMsg, whose IDs are mostly k-mer codes or unset.
//
// A snapshot taken inside contig labeling holds addresses where its jobs
// keep them: an svVertex's and an svMsg's, a list-ranking VData's P for an
// undone side and a labelMsg push's ID (a pregel.Addr each, see VData), and
// an unlabeled vertex's side positions in Label. An address or a position
// means something only in partitions laid out as the run that wrote it
// found them; a resumed run restores those partitions before it reads one.

package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"ppaassembler/internal/dbg"
	"ppaassembler/internal/pregel"
)

// AppendCheckpoint implements pregel.CheckpointAppender: the node, the
// ambiguity mask, one byte of the eight flags, the two side indices, the
// five vertex IDs as uvarints (a k-mer ID takes 6 bytes for k = 21, an
// unset one 1; mid-labeling, P may hold addresses and Label side
// positions) and LastActive.
func (v *VData) AppendCheckpoint(buf []byte) []byte {
	buf = v.Node.AppendCheckpoint(buf)
	buf = pregel.AppendUvarint(buf, uint64(v.NbrAmbig))
	var flags byte
	for i, f := range v.flags() {
		if *f {
			flags |= 1 << i
		}
	}
	buf = append(buf, flags, v.PSide[0], v.PSide[1])
	for _, id := range v.ids() {
		buf = pregel.AppendUvarint(buf, uint64(*id))
	}
	return pregel.AppendVarint(buf, v.LastActive)
}

// flags and ids list VData's booleans and vertex IDs in codec order.
func (v *VData) flags() [8]*bool {
	return [8]*bool{&v.HasSide[0], &v.HasSide[1], &v.Done[0], &v.Done[1], &v.Ambig, &v.Labeled, &v.Cycle, &v.TipProbed}
}

func (v *VData) ids() [5]*pregel.VertexID {
	return [5]*pregel.VertexID{&v.SideNbr[0], &v.SideNbr[1], &v.P[0], &v.P[1], &v.Label}
}

// DecodeCheckpoint implements pregel.CheckpointDecoder.
func (v *VData) DecodeCheckpoint(data []byte) ([]byte, error) {
	data, err := v.Node.DecodeCheckpoint(data)
	if err != nil {
		return nil, err
	}
	mask, data, err := pregel.ConsumeUvarint(data)
	if err != nil {
		return nil, err
	}
	// A mask bit marks an adjacency item, so none may lie past the last one.
	if mask > math.MaxUint32 || mask>>v.Node.Degree() != 0 {
		return nil, fmt.Errorf("core: corrupt VData encoding: ambiguity mask %#x over %d adjacency items", mask, v.Node.Degree())
	}
	v.NbrAmbig = uint32(mask)
	if len(data) < 3 {
		return nil, fmt.Errorf("core: corrupt VData encoding: truncated flags")
	}
	for i, f := range v.flags() {
		*f = data[0]>>i&1 != 0
	}
	v.PSide = [2]uint8{data[1], data[2]}
	data = data[3:]
	for _, id := range v.ids() {
		x, rest, err := pregel.ConsumeUvarint(data)
		if err != nil {
			return nil, err
		}
		*id, data = pregel.VertexID(x), rest
	}
	if v.LastActive, data, err = pregel.ConsumeVarint(data); err != nil {
		return nil, err
	}
	return data, nil
}

// AppendCheckpoint implements pregel.CheckpointAppender.
func (m *Msg) AppendCheckpoint(buf []byte) []byte {
	buf = append(buf, byte(m.Kind), m.Side, m.Side2, byte(m.P1), byte(m.P2))
	buf = pregel.AppendBool(buf, m.Flag)
	buf = pregel.AppendUint64(buf, uint64(m.ID))
	buf = pregel.AppendVarint(buf, int64(m.Len))
	return pregel.AppendUvarint(buf, uint64(m.Cov))
}

// DecodeCheckpoint implements pregel.CheckpointDecoder.
func (m *Msg) DecodeCheckpoint(data []byte) ([]byte, error) {
	if len(data) < 5 {
		return nil, fmt.Errorf("core: corrupt Msg encoding: truncated header")
	}
	m.Kind = MsgKind(data[0])
	m.Side, m.Side2 = data[1], data[2]
	m.P1, m.P2 = dbg.Polarity(data[3]), dbg.Polarity(data[4])
	data = data[5:]
	var err error
	if m.Flag, data, err = pregel.ConsumeBool(data); err != nil {
		return nil, err
	}
	id, data, err := pregel.ConsumeUint64(data)
	if err != nil {
		return nil, err
	}
	m.ID = pregel.VertexID(id)
	n, data, err := pregel.ConsumeVarint(data)
	if err != nil {
		return nil, err
	}
	if n < math.MinInt32 || n > math.MaxInt32 {
		return nil, fmt.Errorf("core: corrupt Msg encoding: length %d overflows int32", n)
	}
	m.Len = int32(n)
	cov, data, err := pregel.ConsumeUvarint(data)
	if err != nil {
		return nil, err
	}
	if cov > math.MaxUint32 {
		return nil, fmt.Errorf("core: corrupt Msg encoding: coverage %d overflows uint32", cov)
	}
	m.Cov = uint32(cov)
	return data, nil
}

// AppendCheckpoint implements pregel.CheckpointAppender: the one-byte
// fields, the ID (a vertex ID, or a push's address) fixed 8-byte and the
// position fixed 4-byte.
func (m *labelMsg) AppendCheckpoint(buf []byte) []byte {
	buf = append(buf, byte(m.Kind), m.Side, m.Side2)
	buf = pregel.AppendBool(buf, m.Flag)
	buf = pregel.AppendUint64(buf, uint64(m.ID))
	return binary.LittleEndian.AppendUint32(buf, m.Pos)
}

// DecodeCheckpoint implements pregel.CheckpointDecoder.
func (m *labelMsg) DecodeCheckpoint(data []byte) ([]byte, error) {
	if len(data) < 3 {
		return nil, fmt.Errorf("core: corrupt labelMsg encoding: truncated header")
	}
	m.Kind, m.Side, m.Side2 = MsgKind(data[0]), data[1], data[2]
	var err error
	if m.Flag, data, err = pregel.ConsumeBool(data[3:]); err != nil {
		return nil, err
	}
	id, data, err := pregel.ConsumeUint64(data)
	if err != nil {
		return nil, err
	}
	if len(data) < 4 {
		return nil, fmt.Errorf("core: corrupt labelMsg encoding: truncated position")
	}
	m.ID, m.Pos = pregel.VertexID(id), binary.LittleEndian.Uint32(data)
	return data[4:], nil
}

// AppendCheckpoint implements pregel.CheckpointAppender. Addresses are
// uvarints: a worker number above a partition position.
func (v *svVertex) AppendCheckpoint(buf []byte) []byte {
	buf = pregel.AppendUint64(buf, uint64(v.D))
	buf = pregel.AppendUint64(buf, uint64(v.NbrMin))
	for _, a := range [...]pregel.Addr{v.DA, v.NbrMinA, v.NbrA[0], v.NbrA[1]} {
		buf = pregel.AppendUvarint(buf, uint64(a))
	}
	var flags byte
	for i, f := range [...]bool{v.Live[0], v.Live[1], v.DNew, v.Idle} {
		if f {
			flags |= 1 << i
		}
	}
	return append(buf, flags)
}

// DecodeCheckpoint implements pregel.CheckpointDecoder.
func (v *svVertex) DecodeCheckpoint(data []byte) ([]byte, error) {
	for _, id := range [...]*pregel.VertexID{&v.D, &v.NbrMin} {
		x, rest, err := pregel.ConsumeUint64(data)
		if err != nil {
			return nil, err
		}
		*id, data = pregel.VertexID(x), rest
	}
	for _, a := range [...]*pregel.Addr{&v.DA, &v.NbrMinA, &v.NbrA[0], &v.NbrA[1]} {
		x, rest, err := pregel.ConsumeUvarint(data)
		if err != nil {
			return nil, err
		}
		*a, data = pregel.Addr(x), rest
	}
	if len(data) < 1 || data[0] > 0xf {
		return nil, fmt.Errorf("core: corrupt svVertex encoding: missing or invalid flags")
	}
	f := data[0]
	v.Live = [2]bool{f&1 != 0, f&2 != 0}
	v.DNew, v.Idle = f&4 != 0, f&8 != 0
	return data[1:], nil
}

// AppendCheckpoint implements pregel.CheckpointAppender: the ID and the
// address as uvarints.
func (m *svMsg) AppendCheckpoint(buf []byte) []byte {
	buf = pregel.AppendUvarint(buf, uint64(m.ID))
	return pregel.AppendUvarint(buf, uint64(m.A))
}

// DecodeCheckpoint implements pregel.CheckpointDecoder.
func (m *svMsg) DecodeCheckpoint(data []byte) ([]byte, error) {
	id, data, err := pregel.ConsumeUvarint(data)
	if err != nil {
		return nil, err
	}
	a, data, err := pregel.ConsumeUvarint(data)
	if err != nil {
		return nil, err
	}
	m.ID, m.A = pregel.VertexID(id), pregel.Addr(a)
	return data, nil
}
