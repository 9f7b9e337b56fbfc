package pregel

import (
	"errors"
	"strings"
	"testing"
)

// FuzzCheckpointCorruptInput is the adversarial counterpart to
// FuzzCheckpointRoundTrip: instead of valid state, the decoder gets raw
// fuzz bytes and systematically damaged versions of a valid container
// (bit flips and truncations directed by the fuzz input). The contract:
// never panic, never hang, never allocate unboundedly — and any error on a
// container past the magic/version prefix must carry ErrCheckpointCorrupt
// so walk-back recovery can act on it.
func FuzzCheckpointCorruptInput(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("PPCK"))
	f.Add([]byte{5, 200, 17, 64, 3, 0, 0, 255})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Raw bytes straight into the decoder.
		if _, err := decodeCkptFile("fuzz@000", data); err == nil && len(data) > 0 {
			// Accidentally valid input is astronomically unlikely but legal.
			_ = err
		}

		clean := encodeCkptFile(makeCodecCkptFile())
		// Truncation at a fuzz-chosen point.
		if len(data) > 0 {
			cut := int(data[0]) % (len(clean) + 1)
			if cut < len(clean) {
				if _, err := decodeCkptFile("fuzz@000", clean[:cut]); err == nil {
					t.Fatalf("truncation to %d of %d bytes decoded cleanly", cut, len(clean))
				}
			}
		}
		// Bit flips at fuzz-chosen positions. Duplicate flips at one
		// position cancel, so damage is judged by comparing against the
		// clean bytes, not by counting flips; flips inside magic/version
		// report hard identification errors instead of corruption.
		mut := append([]byte(nil), clean...)
		for i := 0; i+1 < len(data) && i < 64; i += 2 {
			mut[int(data[i])%len(mut)] ^= data[i+1] | 1
		}
		flipped := false
		for pos := len(ckptMagic) + 1; pos < len(mut); pos++ {
			if mut[pos] != clean[pos] {
				flipped = true
			}
		}
		_, err := decodeCkptFile("fuzz@000", mut)
		if flipped && mut[4] == ckptVersion && err == nil {
			t.Fatalf("container with flipped bytes decoded cleanly")
		}
		if err != nil && mut[4] == ckptVersion && string(mut[:4]) == ckptMagic &&
			!errors.Is(err, ErrCheckpointCorrupt) && !strings.Contains(err.Error(), "unsupported checkpoint format") {
			t.Fatalf("decode error is neither ErrCheckpointCorrupt nor an unsupported format: %v", err)
		}
	})
}

// TestCheckpointCorruptSeeds runs the corrupt-input fuzz seeds as a plain
// test so `go test` without -fuzz still covers the property.
func TestCheckpointCorruptSeeds(t *testing.T) {
	seeds := [][]byte{
		{},
		[]byte("PPCK"),
		{5, 200, 17, 64, 3, 0, 0, 255},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
	}
	fixture := makeCodecCkptFile()
	for _, data := range seeds {
		for n := 0; n <= len(data); n++ {
			if _, err := decodeCkptFile("seed@000", data[:n]); err == nil && n > 0 {
				t.Fatalf("junk seed %x decoded cleanly", data[:n])
			}
		}
		clean := encodeCkptFile(fixture)
		for n := 0; n < len(clean); n++ {
			if _, err := decodeCkptFile("seed@000", clean[:n]); err == nil {
				t.Fatalf("truncation to %d of %d bytes decoded cleanly", n, len(clean))
			}
		}
		_ = data
	}
}
