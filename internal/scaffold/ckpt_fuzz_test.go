package scaffold

import (
	"encoding/binary"
	"math"
	"testing"

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

// gap returns a comparable float64 (no NaN: NaN != NaN would trip the
// DeepEqual differential even though both codecs carry the bits faithfully).
func (g *fuzzGen) gap() float64 {
	f := math.Float64frombits(g.u64())
	if math.IsNaN(f) {
		return 0.25
	}
	return f
}

// end returns a valid End; badEnd a byte no End encodes as.
func (g *fuzzGen) end() End     { return End(g.b() & 1) }
func (g *fuzzGen) badEnd() byte { return 2 + g.b()%254 }

func (g *fuzzGen) link() Link {
	return Link{
		Nbr:     g.id(),
		SelfEnd: g.end(),
		NbrEnd:  g.end(),
		Weight:  int32(g.u64()),
		Gap:     g.gap(),
	}
}

// refused asserts that decoding enc fails.
func refused[T any, P ckpttest.Codec[T]](t *testing.T, enc []byte, what string) {
	t.Helper()
	var junk T
	if _, err := P(&junk).DecodeCheckpoint(enc); err == nil {
		t.Fatalf("%T decode accepted %s", junk, what)
	}
}

func FuzzSVertexCodecDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 0, 0xff, 0xfe, 0xfd, 0xfc, 0xfb, 0xfa, 0xf9, 0xf8, 9, 8, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &fuzzGen{data: data}
		l := g.link()
		ckpttest.RoundTrip[Link](t, &l)
		// The ends sit right after the neighbor uvarint, the weight after
		// them: an end other than L/R or a weight past int32 is refused.
		enc := l.AppendCheckpoint(nil)
		ends := len(pregel.AppendUvarint(nil, uint64(l.Nbr)))
		for i := 0; i < 2; i++ {
			bad := append([]byte(nil), enc...)
			bad[ends+i] = g.badEnd()
			refused[Link](t, bad, "an invalid end")
		}
		tail := enc[ends+2+len(pregel.AppendVarint(nil, int64(l.Weight))):]
		wide := pregel.AppendVarint(append([]byte(nil), enc[:ends+2]...), int64(l.Weight)+1<<32)
		refused[Link](t, append(wide, tail...), "a weight past int32")

		v := SVertex{
			Len:      int32(g.u64()),
			Assigned: g.flag(),
			Flip:     g.flag(),
			Wave:     g.id(),
			Pred:     g.id(),
			PredGap:  g.gap(),
		}
		if nc := int(g.b()) % 5; nc > 0 {
			v.Cand = make([]Link, nc)
			for i := range v.Cand {
				v.Cand[i] = g.link()
			}
		}
		for i := 0; i < 2; i++ {
			v.Keep[i] = g.link()
			v.Has[i] = g.flag()
		}
		ckpttest.RoundTrip[SVertex](t, &v)
		tail = v.AppendCheckpoint(nil)[len(pregel.AppendVarint(nil, int64(v.Len))):]
		refused[SVertex](t, append(pregel.AppendVarint(nil, int64(v.Len)-1<<32), tail...), "a length past int32")
		ckpttest.NoPanic[Link](t, data)
		ckpttest.NoPanic[SVertex](t, data)
		ckpttest.Corrupt[SVertex](t, &v, data)
	})
}

func FuzzSMsgCodecDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0, 1, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &fuzzGen{data: data}
		m := SMsg{
			Kind:    g.b(),
			FromEnd: g.end(),
			ToEnd:   g.end(),
			From:    g.id(),
			Wave:    g.id(),
			Gap:     g.gap(),
		}
		ckpttest.RoundTrip[SMsg](t, &m)
		// Bytes 1 and 2 are FromEnd and ToEnd.
		for i := 1; i <= 2; i++ {
			bad := m.AppendCheckpoint(nil)
			bad[i] = g.badEnd()
			refused[SMsg](t, bad, "an invalid end")
		}
		ckpttest.NoPanic[SMsg](t, data)
		ckpttest.Corrupt[SMsg](t, &m, data)
	})
}

// TestSMsgWireBytesMatchesCodec keeps the scaffold jobs' wire charge honest:
// a wave between two contigs of an assembler run (IDs with the contig bit
// set, see dbg.ContigID) encodes in exactly sMsgWireBytes, and a proposal
// in no more.
func TestSMsgWireBytesMatchesCodec(t *testing.T) {
	const a, b = pregel.VertexID(1<<63 | 3<<32 | 17), pregel.VertexID(1<<63 | 1<<32 | 2)
	wave := SMsg{Kind: msgWave, From: a, FromEnd: R, ToEnd: L, Wave: b, Gap: 312.5}
	if n := len(wave.AppendCheckpoint(nil)); n != sMsgWireBytes {
		t.Errorf("wave %+v encodes in %d bytes, sMsgWireBytes = %d", wave, n, sMsgWireBytes)
	}
	propose := SMsg{Kind: msgPropose, From: a, FromEnd: L, ToEnd: R}
	if n := len(propose.AppendCheckpoint(nil)); n > sMsgWireBytes {
		t.Errorf("proposal %+v encodes in %d bytes, more than sMsgWireBytes = %d", propose, n, sMsgWireBytes)
	}
}
