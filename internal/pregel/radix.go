package pregel

import (
	"fmt"
	"math/bits"
)

// radixBlockMin is the key count from which RadixSort sorts in cache-sized
// blocks. Below it the keys and their scratch copy (16 bytes a key, 2 MB at
// the threshold) fit a commodity core's L2 cache and plain LSD passes are
// fastest; above it every LSD scatter pass streams the whole array through
// memory, which the one MSD pass avoids. Measured crossover on a 2 MB-L2
// Xeon: 44-bit keys sort equally fast both ways at about 110 k keys.
const radixBlockMin = 1 << 17

// RadixSort sorts keys ascending with a stable radix sort over 8-bit digits.
// When payload is non-nil it must be as long as keys and is permuted with
// them; because the sort is stable, an identity payload comes back as each
// key's arrival order.
//
// Up to radixBlockMin keys it is a least-significant-digit sort: one
// counting pass fills all eight histograms, and a digit on which every key
// agrees is skipped, so 2k-bit k-mer IDs cost ⌈2k/8⌉ scatter passes rather
// than eight. Larger inputs first take one most-significant-digit scatter
// on the top 8 bits of the range in which the keys differ, into at most 256
// buckets, and then run the same LSD passes on each bucket while it is in
// cache, ping-ponging between the bucket and the matching range of the
// input, so that the result lands back in keys.
//
// It is the one radix loop of the repository: the MapReduce reducer sorts
// (key, arrival index) with it, DBG construction's mapper sorts bare
// (k+1)-mers and the scaffolder its seed index. It allocates one scratch
// copy of each slice it was given, and nothing when no digit differs.
func RadixSort(keys []uint64, payload []int32) {
	n := len(keys)
	if payload != nil && len(payload) != n {
		panic(fmt.Sprintf("pregel: RadixSort payload has %d entries for %d keys", len(payload), n))
	}
	if n < 2 {
		return
	}
	if n < radixBlockMin {
		out, pout := lsdPasses(keys, nil, payload, nil)
		// An odd number of executed passes leaves the result in the scratch.
		if &out[0] != &keys[0] {
			copy(keys, out)
			copy(payload, pout)
		}
		return
	}

	var diff uint64
	for _, k := range keys {
		diff |= k ^ keys[0]
	}
	if diff == 0 {
		return
	}
	// Bits at and above bits.Len64(diff) are equal in every key, so the byte
	// at shift is the top 8 differing bits (all of them when fewer differ).
	shift := uint(max(bits.Len64(diff)-8, 0))
	var start [257]int
	for _, k := range keys {
		start[int(byte(k>>shift))+1]++
	}
	for b := 1; b <= 256; b++ {
		start[b] += start[b-1]
	}
	scratch := make([]uint64, n)
	var pscratch []int32
	next := start
	if payload == nil {
		for _, k := range keys {
			b := byte(k >> shift)
			scratch[next[b]] = k
			next[b]++
		}
	} else {
		pscratch = make([]int32, n)
		for i, k := range keys {
			b := byte(k >> shift)
			p := next[b]
			scratch[p], pscratch[p] = k, payload[i]
			next[b] = p + 1
		}
	}
	// Within a bucket only the bits below shift differ; the passes skip the
	// digits above them.
	for b := 0; b < 256; b++ {
		lo, hi := start[b], start[b+1]
		if hi == lo {
			continue
		}
		var psrc, pdst []int32
		if payload != nil {
			psrc, pdst = pscratch[lo:hi], payload[lo:hi]
		}
		out, pout := lsdPasses(scratch[lo:hi], keys[lo:hi], psrc, pdst)
		if &out[0] != &keys[lo] {
			copy(keys[lo:hi], out)
			copy(pdst, pout)
		}
	}
}

// lsdPasses sorts src (and psrc with it) by stable LSD scatter passes,
// ping-ponging between src and dst, and returns the pair of slices that
// holds the result. A nil dst is allocated when the first pass runs; a nil
// psrc means no payload.
func lsdPasses(src, dst []uint64, psrc, pdst []int32) ([]uint64, []int32) {
	n := len(src)
	var hist [8][256]int
	for _, k := range src {
		hist[0][byte(k)]++
		hist[1][byte(k>>8)]++
		hist[2][byte(k>>16)]++
		hist[3][byte(k>>24)]++
		hist[4][byte(k>>32)]++
		hist[5][byte(k>>40)]++
		hist[6][byte(k>>48)]++
		hist[7][byte(k>>56)]++
	}
	first := src[0]
	for d := range hist {
		shift := uint(8 * d)
		h := &hist[d]
		if h[byte(first>>shift)] == n {
			continue
		}
		if dst == nil {
			dst = make([]uint64, n)
			if psrc != nil {
				pdst = make([]int32, n)
			}
		}
		sum := 0
		for b, c := range h {
			h[b] = sum
			sum += c
		}
		if psrc == nil {
			for _, k := range src {
				b := byte(k >> shift)
				dst[h[b]] = k
				h[b]++
			}
		} else {
			for i, k := range src {
				b := byte(k >> shift)
				p := h[b]
				dst[p], pdst[p] = k, psrc[i]
				h[b] = p + 1
			}
		}
		src, dst = dst, src
		psrc, pdst = pdst, psrc
	}
	return src, psrc
}
