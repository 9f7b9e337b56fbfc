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
// vertices. A graph keeps the placement it was constructed with.
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
