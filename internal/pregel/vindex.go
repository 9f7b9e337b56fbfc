package pregel

import (
	"fmt"
	"math"
	"math/bits"
)

// vindex is the engine's one ID → position lookup structure: a flat
// open-addressing table over a slice of IDs the caller owns (a worker's
// ids). A slot holds
// position+1 (0 = empty) and a probe compares the key against ids[position],
// so there is no second key array — four bytes per slot at a load factor of
// at most one half — and the common lookup is one multiply, one slot read
// and one ids read. Entries are never deleted: a removed vertex keeps its
// position until the next compaction rebuilds the table.
//
// Every method takes the ids slice because the owner reassigns it as it
// grows. The invariant is that the table indexes exactly ids[0:len(ids)].
type vindex struct {
	slots []int32
	shift uint8 // 64 - log2(len(slots))
}

// home is the first slot of id's probe run: Fibonacci hashing of the folded
// key. The slot comes from the product's high bits, which depend on every
// bit of the ID, so neither 2-bit-packed k-mer IDs (low bits only) nor contig
// IDs (worker number in the high bits) cluster; and it is independent of
// hashID, whose residue picked the worker and is constant within one.
func (x *vindex) home(id VertexID) uint64 {
	return ((uint64(id) ^ uint64(id)>>32) * 0x9E3779B97F4A7C15) >> x.shift
}

// lookup returns the position of id in ids.
func (x *vindex) lookup(ids []VertexID, id VertexID) (int, bool) {
	if len(x.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(x.slots) - 1)
	for h := x.home(id); ; h = (h + 1) & mask {
		p := x.slots[h]
		if p == 0 {
			return 0, false
		}
		if ids[p-1] == id {
			return int(p - 1), true
		}
	}
}

// push indexes the last element of ids, which the caller has just appended
// and which must not already be present.
func (x *vindex) push(ids []VertexID) {
	if 2*len(ids) > len(x.slots) {
		x.rebuild(ids, 2*len(ids))
		return
	}
	x.place(ids, len(ids)-1)
}

// reserve makes room for n entries without a further rebuild.
func (x *vindex) reserve(ids []VertexID, n int) {
	if 2*n > len(x.slots) {
		x.rebuild(ids, n)
	}
}

// place claims the first free slot of ids[pos]'s probe run.
func (x *vindex) place(ids []VertexID, pos int) {
	mask := uint64(len(x.slots) - 1)
	h := x.home(ids[pos])
	for x.slots[h] != 0 {
		h = (h + 1) & mask
	}
	x.slots[h] = int32(pos + 1)
}

// rebuild re-creates the table over ids with room for n entries (at least
// len(ids)) before the next growth, reusing the slot array when the size is
// unchanged. A partition the int32 slots cannot address fails here, loudly,
// before anything is allocated or wrapped.
func (x *vindex) rebuild(ids []VertexID, n int) {
	n = max(n, len(ids))
	if n >= math.MaxInt32 {
		panic(fmt.Sprintf("pregel: a partition of %d vertices exceeds the engine's int32 vertex index", n))
	}
	size := 1 << bits.Len(uint(2*n)|7) // power of two, > 2n, at least 8
	if len(x.slots) == size {
		clear(x.slots)
	} else {
		x.slots = make([]int32, size)
	}
	x.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for pos := range ids {
		x.place(ids, pos)
	}
}
