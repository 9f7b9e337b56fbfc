package pregel

// Partitioner decides which logical worker owns each vertex. Every routing
// decision — AddVertex, message delivery lanes, Value lookups,
// Convert re-sharding — goes through Graph.WorkerOf, which delegates here.
// The assembler always places by HashPartitioner, as Pregel does; the
// interface lets engine tests substitute other placements to check that
// output never depends on which worker owns a vertex.
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
	// Name identifies the strategy; it is persisted in checkpoint headers.
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
