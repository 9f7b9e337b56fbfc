package core

import (
	"bytes"
	"encoding/binary"
	"testing"
	"unsafe"

	"ppaassembler/internal/dbg"
	"ppaassembler/internal/dna"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/pregel/ckpttest"
)

// fuzzGen derives struct fields deterministically from raw fuzz input.
type fuzzGen struct {
	data []byte
	i    int
}

func (g *fuzzGen) b() byte {
	if g.i >= len(g.data) {
		return 0
	}
	v := g.data[g.i]
	g.i++
	return v
}

func (g *fuzzGen) flag() bool { return g.b()&1 == 1 }

func (g *fuzzGen) u64() uint64 {
	var raw [8]byte
	for i := range raw {
		raw[i] = g.b()
	}
	return binary.LittleEndian.Uint64(raw[:])
}

func (g *fuzzGen) id() pregel.VertexID { return pregel.VertexID(g.u64()) }

func (g *fuzzGen) n(max int) int { return int(g.b()) % (max + 1) }

func (g *fuzzGen) seq() dna.Seq {
	s := dna.NewSeq(0)
	for n := g.n(70); n > 0; n-- {
		s = s.Append(dna.Base(g.b() & 3))
	}
	return s
}

func (g *fuzzGen) adj() dbg.Adj {
	return dbg.Adj{
		Nbr:    g.id(),
		In:     g.flag(),
		PSelf:  dbg.Polarity(g.b()),
		PNbr:   dbg.Polarity(g.b()),
		Cov:    uint32(g.u64()),
		NbrLen: int32(g.u64()),
	}
}

func (g *fuzzGen) node() dbg.Node {
	n := dbg.Node{Kind: dbg.NodeKind(g.b()), Seq: g.seq(), Cov: uint32(g.u64())}
	if na := g.n(4); na > 0 {
		n.Adj = make([]dbg.Adj, na)
		for i := range n.Adj {
			n.Adj[i] = g.adj()
		}
	}
	return n
}

// FuzzVDataCodecDifferential checks the segment-graph vertex value — the
// richest state shape the checkpoint codec carries (nested node, sequence,
// adjacency, per-side labeling state) — against the gob baseline.
func FuzzVDataCodecDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x05, 0x00, 0x41})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &fuzzGen{data: data}
		v := VData{
			Node:       g.node(),
			Ambig:      g.flag(),
			Label:      g.id(),
			Labeled:    g.flag(),
			Cycle:      g.flag(),
			LastActive: int64(g.u64()),
			D:          g.id(),
			DD:         g.id(),
			TipProbed:  g.flag(),
		}
		if na := g.n(6); na > 0 {
			v.NbrAmbig = make([]bool, na)
			for i := range v.NbrAmbig {
				v.NbrAmbig[i] = g.flag()
			}
		}
		for i := 0; i < 2; i++ {
			v.Sides[i] = g.adj()
			v.HasSide[i] = g.flag()
			v.P[i] = g.id()
			v.PSide[i] = g.b()
			v.Done[i] = g.flag()
		}
		ckpttest.RoundTrip[VData](t, &v)
		ckpttest.NoPanic[VData](t, data)
		ckpttest.Corrupt[VData](t, &v, data)
	})
}

func FuzzMsgCodecDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 1, 0, 2, 3, 1, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff, 0x11, 0x22})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &fuzzGen{data: data}
		m := Msg{
			Kind:  MsgKind(g.b()),
			From:  g.id(),
			Ptr:   g.id(),
			Side:  g.b(),
			Side2: g.b(),
			Flag:  g.flag(),
			Len:   int64(g.u64()),
			Cov:   uint32(g.u64()),
			P1:    dbg.Polarity(g.b()),
			P2:    dbg.Polarity(g.b()),
			NLen:  int32(g.u64()),
		}
		ckpttest.RoundTrip[Msg](t, &m)
		ckpttest.NoPanic[Msg](t, data)
		ckpttest.Corrupt[Msg](t, &m, data)
	})
}

// TestMsgLayoutFence pins the two properties the widest-first field order of
// Msg must keep apart: the in-memory size (40 bytes, so a routed envelope —
// an 8-byte destination plus the message — is 48) and the encoding, which is
// written field by field and so must not notice the declaration order. The
// expected bytes are those of the original declaration order.
func TestMsgLayoutFence(t *testing.T) {
	if got := unsafe.Sizeof(Msg{}); got != 40 {
		t.Errorf("Msg is %d bytes, want 40: a field was added or the widest-first order broken", got)
	}
	m := Msg{Kind: MsgSVHook, From: 0x0102030405060708, Ptr: 1 << 63, Side: 1, Side2: 2, Flag: true,
		Len: -300, Cov: 70000, P1: 1, P2: 2, NLen: 77}
	want := []byte{byte(MsgSVHook), 1, 2, 1, 2, 1,
		8, 7, 6, 5, 4, 3, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0x80,
		0xd7, 0x04, 0xf0, 0xa2, 0x04, 0x9a, 0x01}
	if got := m.AppendCheckpoint(nil); !bytes.Equal(got, want) {
		t.Errorf("Msg encoding changed:\n got %v\nwant %v", got, want)
	}
}
