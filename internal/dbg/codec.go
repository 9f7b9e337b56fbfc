package dbg

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"

	"ppaassembler/internal/dna"
	"ppaassembler/internal/pregel"
)

// Record serialization. Each operation of PPA-assembler can either hand its
// output to the next job in memory (pregel.Convert) or dump it to the
// sharded store and reload it later, exactly as the paper positions HDFS.
// Records are line-oriented hex-encoded binary so they travel through
// shardio's line store unharmed; the binary layout uses uvarints so small
// coverages cost one byte (the paper's variable-length integers).

// MarshalKmerRecord serializes one compact k-mer vertex (ID, 32-bit
// adjacency bitmap, varint coverage list).
func MarshalKmerRecord(id pregel.VertexID, v *KmerVertex) string {
	var buf bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(id))
	buf.Write(tmp[:n])
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], uint32(v.Adj))
	buf.Write(b4[:])
	buf.Write(v.EncodeCovs())
	return hex.EncodeToString(buf.Bytes())
}

// UnmarshalKmerRecord inverts MarshalKmerRecord.
func UnmarshalKmerRecord(s string) (pregel.VertexID, KmerVertex, error) {
	raw, err := hex.DecodeString(s)
	if err != nil {
		return 0, KmerVertex{}, fmt.Errorf("dbg: bad k-mer record: %w", err)
	}
	r := bytes.NewReader(raw)
	id, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, KmerVertex{}, fmt.Errorf("dbg: bad k-mer record id: %w", err)
	}
	var b4 [4]byte
	if _, err := io.ReadFull(r, b4[:]); err != nil {
		return 0, KmerVertex{}, fmt.Errorf("dbg: bad k-mer record bitmap: %w", err)
	}
	v := KmerVertex{Adj: Bitmap32(binary.LittleEndian.Uint32(b4[:]))}
	if v.Degree() > MaxDegree {
		return 0, KmerVertex{}, fmt.Errorf("dbg: bad k-mer record: %d items, at most %d", v.Degree(), MaxDegree)
	}
	rest := raw[len(raw)-r.Len():]
	covs, err := DecodeCovs(rest, v.Degree())
	if err != nil {
		return 0, KmerVertex{}, err
	}
	copy(v.Covs[:], covs)
	return pregel.VertexID(id), v, nil
}

// MarshalNodeRecord serializes a segment node with its vertex ID: kind,
// coverage, sequence (length + packed words), and adjacency items.
func MarshalNodeRecord(id pregel.VertexID, n *Node) string {
	var buf bytes.Buffer
	putUvarint := func(v uint64) {
		var tmp [binary.MaxVarintLen64]byte
		k := binary.PutUvarint(tmp[:], v)
		buf.Write(tmp[:k])
	}
	putUvarint(uint64(id))
	buf.WriteByte(byte(n.Kind))
	putUvarint(uint64(n.Cov))
	seq := n.Oriented(L)
	putUvarint(uint64(seq.Len()))
	for _, w := range seq.Words() {
		var b8 [8]byte
		binary.LittleEndian.PutUint64(b8[:], w)
		buf.Write(b8[:])
	}
	putUvarint(uint64(n.Degree()))
	for _, a := range n.Items() {
		putUvarint(uint64(a.Nbr))
		flags := byte(0)
		if a.In {
			flags |= 1
		}
		flags |= byte(a.PSelf) << 1
		flags |= byte(a.PNbr) << 2
		buf.WriteByte(flags)
		putUvarint(uint64(a.Cov))
		putUvarint(uint64(a.NbrLen))
	}
	return hex.EncodeToString(buf.Bytes())
}

// UnmarshalNodeRecord inverts MarshalNodeRecord up to the node's form: it
// returns an explicit node, with the same sequence and items.
func UnmarshalNodeRecord(s string) (pregel.VertexID, Node, error) {
	raw, err := hex.DecodeString(s)
	if err != nil {
		return 0, Node{}, fmt.Errorf("dbg: bad node record: %w", err)
	}
	r := bytes.NewReader(raw)
	fail := func(what string, err error) (pregel.VertexID, Node, error) {
		return 0, Node{}, fmt.Errorf("dbg: bad node record %s: %w", what, err)
	}
	id, err := binary.ReadUvarint(r)
	if err != nil {
		return fail("id", err)
	}
	kind, err := r.ReadByte()
	if err != nil {
		return fail("kind", err)
	}
	if kind > byte(KindContig) {
		return 0, Node{}, fmt.Errorf("dbg: bad node kind %d", kind)
	}
	cov, err := binary.ReadUvarint(r)
	if err != nil {
		return fail("coverage", err)
	}
	seqLen, err := binary.ReadUvarint(r)
	if err != nil {
		return fail("sequence length", err)
	}
	words := make([]uint64, (seqLen+31)/32)
	for i := range words {
		var b8 [8]byte
		if _, err := io.ReadFull(r, b8[:]); err != nil {
			return fail("sequence words", err)
		}
		words[i] = binary.LittleEndian.Uint64(b8[:])
	}
	seq, err := dna.SeqFromWords(words, int(seqLen))
	if err != nil {
		return fail("sequence", err)
	}
	nAdj, err := binary.ReadUvarint(r)
	if err != nil {
		return fail("adjacency count", err)
	}
	if nAdj > uint64(len(raw)) {
		return 0, Node{}, fmt.Errorf("dbg: implausible adjacency count %d", nAdj)
	}
	var adj []Adj
	for i := uint64(0); i < nAdj; i++ {
		nbr, err := binary.ReadUvarint(r)
		if err != nil {
			return fail("adjacency nbr", err)
		}
		flags, err := r.ReadByte()
		if err != nil {
			return fail("adjacency flags", err)
		}
		acov, err := binary.ReadUvarint(r)
		if err != nil {
			return fail("adjacency coverage", err)
		}
		nlen, err := binary.ReadUvarint(r)
		if err != nil {
			return fail("adjacency length", err)
		}
		adj = append(adj, Adj{
			Nbr:    pregel.VertexID(nbr),
			In:     flags&1 != 0,
			PSelf:  Polarity(flags >> 1 & 1),
			PNbr:   Polarity(flags >> 2 & 1),
			Cov:    uint32(acov),
			NbrLen: int32(nlen),
		})
	}
	if r.Len() != 0 {
		return 0, Node{}, fmt.Errorf("dbg: %d trailing bytes in node record", r.Len())
	}
	return pregel.VertexID(id), NewNode(pregel.VertexID(id), NodeKind(kind), seq, uint32(cov), adj), nil
}
