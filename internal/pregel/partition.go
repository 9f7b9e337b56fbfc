package pregel

import "math/bits"

// Partitioner decides which logical worker owns each vertex. It is the
// engine's pluggable placement layer: every routing decision — AddVertex,
// message delivery lanes, Value/SetValue lookups, Convert re-sharding —
// goes through Graph.WorkerOf, which delegates here. On Pregel+ (the
// backend the paper builds on) communication dominates compute, so the
// placement strategy directly controls how much traffic crosses the
// simulated wire versus staying intra-machine (see CostModel's two network
// tiers).
//
// Implementations must be deterministic, safe for concurrent use (Assign is
// called concurrently from different workers in Parallel mode), and stable for
// the duration of a run: the engine snapshots nothing about placement
// between supersteps, so an Assign that changes mid-run would strand
// vertices. Re-placement between runs (as the assembler's label-affinity
// partitioner does between pipeline stages) is fine for freshly built
// graphs; an existing graph keeps the placement it was constructed with.
//
// Checkpoints record the partitioner's Name, and Resume rejects a mismatch:
// partition snapshots are per-worker, so restoring them under a different
// placement would silently scatter partition-local state.
type Partitioner interface {
	// Name identifies the strategy; it is persisted in checkpoint headers
	// and surfaced by CLIs.
	Name() string
	// Assign returns the worker in [0, workers) that owns id.
	Assign(id VertexID, workers int) int
}

// HashPartitioner is the engine's historical default: SplitMix64-mix the ID
// and take it modulo the worker count. Placement is uniform and oblivious —
// adjacent vertices land on unrelated workers, so for W workers an expected
// (W-1)/W of all messages cross the wire.
type HashPartitioner struct{}

// Name implements Partitioner.
func (HashPartitioner) Name() string { return "hash" }

// Assign implements Partitioner.
func (HashPartitioner) Assign(id VertexID, workers int) int {
	return int(hashID(id) % uint64(workers))
}

// RangePartitioner splits a Bits-bit ID space into workers contiguous,
// equal-width spans: worker = floor(id · workers / 2^Bits). The assembler
// uses it over the 2-bit-packed k-mer encoding (Bits = 2k), where the ID
// order is the lexicographic order of the k-mer sequences, so one worker
// owns one contiguous slice of k-mer space. IDs outside the declared space —
// for the assembler: contig and NULL IDs, which carry bit 63 — fall back to
// hash placement, so the partitioner stays total over arbitrary ID schemes.
type RangePartitioner struct {
	// Bits is the width of the ranged ID space; IDs >= 1<<Bits fall back
	// to hash placement. Zero (or > 63) disables ranging entirely.
	Bits uint
}

// Name implements Partitioner.
func (p RangePartitioner) Name() string { return "range" }

// Assign implements Partitioner.
func (p RangePartitioner) Assign(id VertexID, workers int) int {
	if p.Bits == 0 || p.Bits > 63 || uint64(id)>>p.Bits != 0 {
		return int(hashID(id) % uint64(workers))
	}
	// floor(id * workers / 2^Bits) via the 128-bit product, so Bits up to
	// 63 cannot overflow. id < 2^Bits ensures the result is < workers.
	hi, lo := bits.Mul64(uint64(id), uint64(workers))
	return int(hi<<(64-p.Bits) | lo>>p.Bits)
}

// TablePartitioner overrides the placement of an explicit vertex set and
// delegates everything else to a base partitioner. It is the substrate for
// learned placements such as the assembler's label-affinity strategy, which
// re-places contig vertices next to their graph neighborhood after merging.
//
// The table is bound to the worker count it was built for; under any other
// worker count every ID falls back to Base, so a stale table can misplace
// nothing. Mutate the table only between runs (Install/Reset), never while
// a run is executing.
type TablePartitioner struct {
	// Label is the Name() of this placement (e.g. "affinity").
	Label string
	// Base places every ID the table does not cover. Nil means hash.
	Base Partitioner

	table   map[VertexID]int
	workers int
}

// NewTablePartitioner returns an empty table over base (nil base = hash).
func NewTablePartitioner(label string, base Partitioner) *TablePartitioner {
	if base == nil {
		base = HashPartitioner{}
	}
	return &TablePartitioner{Label: label, Base: base}
}

// Name implements Partitioner.
func (p *TablePartitioner) Name() string { return p.Label }

// Assign implements Partitioner.
func (p *TablePartitioner) Assign(id VertexID, workers int) int {
	if p.workers == workers {
		if w, ok := p.table[id]; ok {
			return w
		}
	}
	if p.Base == nil {
		return HashPartitioner{}.Assign(id, workers)
	}
	return p.Base.Assign(id, workers)
}

// Install replaces the table wholesale with entries valid for the given
// worker count. Entries must be in [0, workers); out-of-range entries are
// dropped rather than corrupting delivery.
func (p *TablePartitioner) Install(entries map[VertexID]int, workers int) {
	t := make(map[VertexID]int, len(entries))
	for id, w := range entries {
		if w >= 0 && w < workers {
			t[id] = w
		}
	}
	p.table, p.workers = t, workers
}

// Reset drops every table entry, reverting to pure base placement.
func (p *TablePartitioner) Reset() { p.table, p.workers = nil, 0 }

// Len reports the number of installed overrides.
func (p *TablePartitioner) Len() int { return len(p.table) }
