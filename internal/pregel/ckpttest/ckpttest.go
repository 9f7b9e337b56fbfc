// Package ckpttest is the differential test harness for checkpoint codec
// implementations: every type that opts into the engine's binary
// checkpoint format (pregel.CheckpointAppender / pregel.CheckpointDecoder)
// is checked against a gob round trip as the baseline, so the two
// serializations can never silently disagree about a vertex state shape —
// and, via Corrupt, against truncated and bit-flipped encodings, so
// damaged state can never crash a decoder.
package ckpttest

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
)

// Codec is the pointer-receiver pair every checkpointable type implements.
type Codec[T any] interface {
	*T
	AppendCheckpoint(buf []byte) []byte
	DecodeCheckpoint(data []byte) ([]byte, error)
}

// RoundTrip runs the differential contract on one value:
//
//  1. the binary encoding is self-delimiting — decoding consumes exactly
//     the appended bytes and returns any trailing data untouched;
//  2. re-encoding the decoded value reproduces the original bytes
//     (byte-identical round trip, the property delta checkpoints rely on);
//  3. the binary-decoded value equals the value a gob round trip (the
//     baseline) produces, field for field.
func RoundTrip[T any, P Codec[T]](t testing.TB, v *T) {
	t.Helper()
	enc := P(v).AppendCheckpoint(nil)

	sentinel := []byte{0xA5, 0x5A, 0x00, 0xFF}
	framed := append(append(make([]byte, 0, len(enc)+len(sentinel)), enc...), sentinel...)
	var bin T
	rest, err := P(&bin).DecodeCheckpoint(framed)
	if err != nil {
		t.Fatalf("DecodeCheckpoint(%T): %v", v, err)
	}
	if !bytes.Equal(rest, sentinel) {
		t.Fatalf("%T codec is not self-delimiting: %d bytes left after decode, want the %d-byte sentinel", v, len(rest), len(sentinel))
	}
	if re := P(&bin).AppendCheckpoint(nil); !bytes.Equal(re, enc) {
		t.Fatalf("%T re-encode after decode differs from the original encoding (%d vs %d bytes)", v, len(re), len(enc))
	}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("gob baseline encode of %T: %v", v, err)
	}
	var viaGob T
	if err := gob.NewDecoder(&buf).Decode(&viaGob); err != nil {
		t.Fatalf("gob baseline decode of %T: %v", v, err)
	}
	if !reflect.DeepEqual(bin, viaGob) {
		t.Fatalf("%T: binary codec and gob baseline disagree:\n binary %+v\n    gob %+v", v, bin, viaGob)
	}
}

// NoPanic feeds arbitrary bytes to the decoder: corrupt input must surface
// as an error, never a panic or an unbounded allocation.
func NoPanic[T any, P Codec[T]](t testing.TB, data []byte) {
	t.Helper()
	var junk T
	_, _ = P(&junk).DecodeCheckpoint(data)
}

// Corrupt exercises the decoder against damaged encodings of v — the
// adversarial counterpart to RoundTrip's happy path. It decodes every
// truncation of the valid encoding, then applies byte flips at positions
// drawn from the fuzz input. Damage must surface as a decode error or a
// differing value — never a panic, hang, or unbounded allocation (the
// properties the checkpoint walk-back recovery depends on).
func Corrupt[T any, P Codec[T]](t testing.TB, v *T, fuzz []byte) {
	t.Helper()
	enc := P(v).AppendCheckpoint(nil)
	for n := 0; n < len(enc); n++ {
		var junk T
		_, _ = P(&junk).DecodeCheckpoint(enc[:n])
	}
	if len(enc) == 0 {
		return
	}
	for i := 0; i+1 < len(fuzz) && i < 64; i += 2 {
		mut := append([]byte(nil), enc...)
		mut[int(fuzz[i])%len(mut)] ^= fuzz[i+1] | 1 // |1 keeps the flip nonzero
		var junk T
		_, _ = P(&junk).DecodeCheckpoint(mut)
	}
}
