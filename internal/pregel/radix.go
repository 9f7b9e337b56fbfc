package pregel

import "fmt"

// RadixSort sorts keys ascending with a stable least-significant-digit radix
// sort over 8-bit digits. One counting pass fills all eight histograms; a
// digit on which every key agrees is skipped, so 2k-bit k-mer IDs cost
// ⌈2k/8⌉ scatter passes rather than eight. When payload is non-nil it must
// be as long as keys and is permuted with them; because the sort is stable,
// an identity payload comes back as each key's arrival order.
//
// It is the one radix loop of the repository: the MapReduce reducer sorts
// (key, arrival index) with it and DBG construction's mapper sorts bare
// (k+1)-mers. It allocates one scratch copy of each slice it was given, and
// nothing when no digit differs.
func RadixSort(keys []uint64, payload []int32) {
	n := len(keys)
	if payload != nil && len(payload) != n {
		panic(fmt.Sprintf("pregel: RadixSort payload has %d entries for %d keys", len(payload), n))
	}
	if n < 2 {
		return
	}
	var hist [8][256]int
	for _, k := range keys {
		hist[0][byte(k)]++
		hist[1][byte(k>>8)]++
		hist[2][byte(k>>16)]++
		hist[3][byte(k>>24)]++
		hist[4][byte(k>>32)]++
		hist[5][byte(k>>40)]++
		hist[6][byte(k>>48)]++
		hist[7][byte(k>>56)]++
	}
	src, psrc := keys, payload
	var dst []uint64
	var pdst []int32
	for d := range hist {
		shift := uint(8 * d)
		h := &hist[d]
		if h[byte(keys[0]>>shift)] == n {
			continue
		}
		if dst == nil {
			dst = make([]uint64, n)
			if payload != nil {
				pdst = make([]int32, n)
			}
		}
		sum := 0
		for b, c := range h {
			h[b] = sum
			sum += c
		}
		if payload == nil {
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
	// An odd number of executed passes leaves the result in the scratch.
	if &src[0] != &keys[0] {
		copy(keys, src)
		copy(payload, psrc)
	}
}
