package pregel

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// checkRadixSort sorts a copy of keys (and of payload, when non-nil) with
// RadixSort and requires the result to equal slices.SortStableFunc over the
// (key, payload) records, i.e. keys ascending and equal keys in input order.
func checkRadixSort(t *testing.T, label string, keys []uint64, payload []int32) {
	t.Helper()
	type rec struct {
		k uint64
		p int32
	}
	want := make([]rec, len(keys))
	for i, k := range keys {
		want[i].k = k
		if payload != nil {
			want[i].p = payload[i]
		}
	}
	slices.SortStableFunc(want, func(a, b rec) int {
		switch {
		case a.k < b.k:
			return -1
		case a.k > b.k:
			return 1
		}
		return 0
	})
	gotK, gotP := slices.Clone(keys), slices.Clone(payload)
	RadixSort(gotK, gotP)
	if (gotP == nil) != (payload == nil) || len(gotK) != len(keys) || len(gotP) != len(payload) {
		t.Fatalf("%s: shape changed: %d keys, %d payload (nil=%v)", label, len(gotK), len(gotP), gotP == nil)
	}
	for i, w := range want {
		if gotK[i] != w.k || (payload != nil && gotP[i] != w.p) {
			p := int32(-1)
			if payload != nil {
				p = gotP[i]
			}
			t.Fatalf("%s: rank %d is (%#x, %d), stable reference has (%#x, %d)", label, i, gotK[i], p, w.k, w.p)
		}
	}
}

// radixCases are the key shapes the kernel's branches depend on. mask picks
// the digits on which keys may differ, so the number of executed scatter
// passes — and with it whether the result ends in the scratch and is copied
// back — is fixed by construction: one pass per non-zero mask byte. Rows of
// radixBlockMin keys or more take the blocked path (one MSD scatter on the
// top 8 differing bits, then LSD passes per bucket); outlier, when set, is
// OR-ed into one key, so every other key lands in a single MSD bucket.
var radixCases = []struct {
	name    string
	n       int
	mask    uint64
	outlier uint64
}{
	{"empty", 0, math.MaxUint64, 0},
	{"one", 1, math.MaxUint64, 0},
	{"two", 2, math.MaxUint64, 0},
	{"odd length", 1001, math.MaxUint64, 0},
	{"large, all 8 digits (even passes)", 120_000, math.MaxUint64, 0},
	{"all equal (no pass, no scratch)", 500, 0, 0},
	{"one high byte (1 pass, copy-back)", 3000, 0xFF << 56, 0},
	{"two digits (2 passes, in place)", 3000, 0xFF<<40 | 0xFF, 0},
	{"three digits (3 passes, copy-back)", 3000, 0xFF<<48 | 0xFF<<16 | 0xFF<<8, 0},
	{"44-bit k-mer IDs, k+1 = 22 (6 passes)", 50_000, 1<<44 - 1, 0},
	{"few distinct keys, long runs", 20_000, 0x0101, 0},
	{"blocked: 44-bit k-mer IDs (MSD + 5 passes per bucket)", radixBlockMin + 20_011, 1<<44 - 1, 0},
	{"blocked: low 8 bits only (MSD alone, no LSD pass)", radixBlockMin + 7, 0xFF, 0},
	{"blocked: every key but one in one top bucket", radixBlockMin + 1000, 1<<36 - 1, 1 << 43},
	{"blocked: all equal (no pass, no scratch)", radixBlockMin, 0, 0},
}

func TestRadixSortMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, tc := range radixCases {
		base := rng.Uint64() // the digits outside mask: equal in every key
		keys := make([]uint64, tc.n)
		identity := make([]int32, tc.n)
		shuffled := make([]int32, tc.n)
		for i := range keys {
			keys[i] = base&^tc.mask | rng.Uint64()&tc.mask
			identity[i] = int32(i)
			shuffled[i] = rng.Int31() - 1<<30
		}
		if tc.outlier != 0 {
			keys[tc.n/2] |= tc.outlier
		}
		checkRadixSort(t, tc.name+", no payload", keys, nil)
		checkRadixSort(t, tc.name+", identity payload", keys, identity)
		checkRadixSort(t, tc.name+", arbitrary payload", keys, shuffled)
	}

	// The extremes of the key range, alone and mixed with duplicates.
	edges := []uint64{math.MaxUint64, 0, 1, math.MaxUint64 - 1, 0, math.MaxUint64, 1 << 63, 1<<63 - 1, 0}
	checkRadixSort(t, "0 and MaxUint64", edges, nil)
	checkRadixSort(t, "0 and MaxUint64, payload", edges, []int32{8, 7, 6, 5, 4, 3, 2, 1, 0})
	checkRadixSort(t, "two reversed", []uint64{math.MaxUint64, 0}, []int32{0, 1})
	// An empty non-nil payload is still a payload.
	checkRadixSort(t, "empty with payload", []uint64{}, []int32{})

	// Equal keys need no pass, so neither path allocates scratch.
	for _, n := range []int{500, radixBlockMin} {
		keys, payload := make([]uint64, n), make([]int32, n)
		if a := testing.AllocsPerRun(3, func() { RadixSort(keys, payload) }); a != 0 {
			t.Errorf("%d equal keys: %.0f allocations, want 0", n, a)
		}
	}
}

// TestRadixSortAllocFence pins what each blocked path allocates. Without a
// payload the MSD pass permutes the keys in place and the buckets share one
// scratch buffer the size of the largest, so sorting 4·radixBlockMin random
// 44-bit k-mer IDs (buckets of about n/256 keys) must allocate well under the
// n×8 bytes of a scratch copy, in one allocation. With a payload the MSD
// pass stays out of place for stability: one copy of the keys and one of the
// payload. Equal keys allocate nothing on either path.
func TestRadixSortAllocFence(t *testing.T) {
	n := 4 * radixBlockMin
	rng := rand.New(rand.NewSource(44))
	orig := make([]uint64, n)
	for i := range orig {
		orig[i] = rng.Uint64() & (1<<44 - 1)
	}
	keys, payload := make([]uint64, n), make([]int32, n)
	allocated := func(payload []int32) (bytes uint64, allocs float64) {
		var before, after runtime.MemStats
		allocs = testing.AllocsPerRun(1, func() {
			copy(keys, orig)
			runtime.ReadMemStats(&before)
			RadixSort(keys, payload)
			runtime.ReadMemStats(&after)
		})
		if !slices.IsSorted(keys) {
			t.Fatal("keys not sorted")
		}
		return after.TotalAlloc - before.TotalAlloc, allocs
	}
	if b, a := allocated(nil); b >= uint64(n) || a > 1 {
		t.Errorf("payload-free sort of %d keys allocated %d bytes in %.0f allocations; want < %d bytes (no n-sized scratch) in at most 1", n, b, a, n)
	}
	if b, a := allocated(payload); b < uint64(12*n) || a != 2 {
		t.Errorf("payload sort of %d keys allocated %d bytes in %.0f allocations; want its two out-of-place copies (≥ %d bytes, 2 allocations)", n, b, a, 12*n)
	}
	clear(keys)
	for _, p := range [][]int32{nil, payload} {
		if a := testing.AllocsPerRun(3, func() { RadixSort(keys, p) }); a != 0 {
			t.Errorf("%d equal keys (payload %v): %.0f allocations, want 0", n, p != nil, a)
		}
	}
}

// checkStableOrder is checkRadixSort for inputs too large to sort a
// reference copy of on every fuzz execution: given the keys before sorting
// and the keys and identity payload after, it checks in one pass that the
// payload is a permutation carrying every key along, and that the records
// ascend by (key, arrival index) — which is exactly the stable order.
func checkStableOrder(t *testing.T, label string, orig, got []uint64, perm []int32) {
	t.Helper()
	seen := make([]bool, len(orig))
	for i, p := range perm {
		if p < 0 || int(p) >= len(orig) || seen[p] || got[i] != orig[p] {
			t.Fatalf("%s: rank %d holds (%#x, %d), not a record of the input", label, i, got[i], p)
		}
		seen[p] = true
		if i > 0 && (got[i-1] > got[i] || got[i-1] == got[i] && perm[i-1] > p) {
			t.Fatalf("%s: ranks %d and %d are (%#x, %d) then (%#x, %d): not the stable order", label, i-1, i, got[i-1], perm[i-1], got[i], p)
		}
	}
}

func TestRadixSortRejectsMismatchedPayload(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "payload") {
			t.Fatalf("want a payload-length panic, got %v", r)
		}
	}()
	RadixSort([]uint64{3, 1, 2}, []int32{0, 1})
}

// FuzzRadixSort differential-fuzzes the kernel against the stable reference.
// Keys are the input's 8-byte words under a mask (so the fuzzer reaches the
// skipped-digit and copy-back paths by clearing mask bytes); the payload, when
// asked for, is the arrival index. The same keys are then tiled past
// radixBlockMin, copy c offset by c times the mask's lowest bit (so a zero
// mask still tiles equal keys), to reach the blocked path.
func FuzzRadixSort(f *testing.F) {
	f.Add([]byte{}, uint64(math.MaxUint64), true)
	f.Add([]byte("0123456789abcdef0123456701234567"), uint64(math.MaxUint64), true)
	f.Add([]byte("0123456789abcdef0123456701234567"), uint64(0xFF<<56), false)
	f.Add([]byte("aaaaaaaabbbbbbbbaaaaaaaa"), uint64(0xFFFF), true)
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xff\xff\x00\x00\x00\x00\x00\x00\x00\x00"), uint64(0), true)
	f.Fuzz(func(t *testing.T, data []byte, mask uint64, withPayload bool) {
		keys := make([]uint64, len(data)/8)
		for i := range keys {
			keys[i] = binary.LittleEndian.Uint64(data[8*i:]) & mask
		}
		var payload []int32
		if withPayload {
			payload = make([]int32, len(keys))
			for i := range payload {
				payload[i] = int32(i)
			}
		}
		checkRadixSort(t, "fuzz", keys, payload)
		if len(keys) == 0 {
			return
		}

		step := mask & -mask
		tiled := make([]uint64, 0, radixBlockMin+len(keys))
		for c := uint64(0); len(tiled) < radixBlockMin; c++ {
			for _, k := range keys {
				tiled = append(tiled, k+c*step)
			}
		}
		got, perm := slices.Clone(tiled), make([]int32, len(tiled))
		for i := range perm {
			perm[i] = int32(i)
		}
		RadixSort(got, perm)
		checkStableOrder(t, "fuzz, tiled", tiled, got, perm)
		bare := slices.Clone(tiled)
		RadixSort(bare, nil)
		if !slices.Equal(bare, got) {
			t.Fatalf("fuzz, tiled: keys sorted without payload differ from keys sorted with it")
		}
	})
}
