package dna

import (
	"encoding/binary"
	"fmt"
)

// MarshalBinary implements encoding.BinaryMarshaler: base count as a uvarint
// followed by the occupied packed words, little-endian. Bits beyond the last
// base are masked off so equal sequences marshal to equal bytes regardless
// of construction history. The engine itself encodes sequences with
// AppendBinary; this method is what lets gob carry them in the per-type
// checkpoint codec oracle (internal/pregel/ckpttest).
func (s Seq) MarshalBinary() ([]byte, error) {
	words := (s.n + 31) / 32
	return s.AppendBinary(make([]byte, 0, binary.MaxVarintLen64+8*words)), nil
}

// AppendBinary appends the MarshalBinary encoding of s to buf and returns
// the extended slice. The encoding is self-delimiting (the base count
// determines the word count), so it composes into larger records — the
// Pregel checkpoint codec builds vertex encodings from it.
func (s Seq) AppendBinary(buf []byte) []byte {
	words := (s.n + 31) / 32
	buf = binary.AppendUvarint(buf, uint64(s.n))
	for i := 0; i < words; i++ {
		w := s.words[i]
		if i == words-1 {
			if rem := uint(s.n & 31); rem != 0 {
				w &= (uint64(1) << (rem * 2)) - 1
			}
		}
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// DecodeBinary replaces s with the sequence encoded at the front of data
// and returns the remaining bytes: the streaming inverse of AppendBinary
// (UnmarshalBinary, by contrast, requires data to hold exactly one
// sequence). The decoded sequence shares no storage with data.
func (s *Seq) DecodeBinary(data []byte) ([]byte, error) {
	n, r := binary.Uvarint(data)
	if r <= 0 {
		return nil, fmt.Errorf("dna: corrupt Seq encoding: bad length")
	}
	data = data[r:]
	words := (int(n) + 31) / 32
	if len(data) < 8*words {
		return nil, fmt.Errorf("dna: corrupt Seq encoding: %d bytes for %d bases", len(data), n)
	}
	w := make([]uint64, words)
	for i := range w {
		w[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	s.words, s.n = w, int(n)
	return data[8*words:], nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, the inverse of
// MarshalBinary. The decoded sequence shares no storage with data.
func (s *Seq) UnmarshalBinary(data []byte) error {
	n, r := binary.Uvarint(data)
	if r <= 0 {
		return fmt.Errorf("dna: corrupt Seq encoding: bad length")
	}
	data = data[r:]
	words := (int(n) + 31) / 32
	if len(data) != 8*words {
		return fmt.Errorf("dna: corrupt Seq encoding: %d bytes for %d bases", len(data), n)
	}
	w := make([]uint64, words)
	for i := range w {
		w[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	s.words, s.n = w, int(n)
	return nil
}
