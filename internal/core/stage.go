package core

import (
	"fmt"

	"ppaassembler/internal/dbg"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/shardio"
)

// Staging: every operation can hand its output to the next job in memory
// (pregel.Convert — the Pregel+ extension of §II) or dump it to the sharded
// store and reload it later, which is how the paper positions HDFS between
// jobs of different systems. These helpers stage the segment graph and
// contig sets as one part-file per worker.

// DumpSegments writes every live vertex's segment node to the store, one
// part-file per owning worker. Per-job scratch state (labels, pointers) is
// deliberately not persisted: operations exchange vertex data, not job
// state.
func DumpSegments(g *Graph, store *shardio.Store) error {
	shards := make([][]string, g.Workers())
	g.ForEachWorker(func(w int, id pregel.VertexID, v *VData) {
		shards[w] = append(shards[w], dbg.MarshalNodeRecord(id, &v.Node))
	})
	return store.WriteShards(shards)
}

// LoadSegments reconstructs a segment graph from a store written by
// DumpSegments. The part count may differ from cfg.Workers; vertices are
// re-hashed to their owning workers on insert, exactly as a re-replicated
// HDFS load would.
func LoadSegments(store *shardio.Store, cfg pregel.Config, clock *pregel.SimClock) (*Graph, error) {
	shards, err := store.ReadShards(0)
	if err != nil {
		return nil, err
	}
	cfg.MessageBytes = MsgWireBytes
	g := pregel.NewGraph[VData, Msg](cfg)
	if clock != nil {
		g.UseClock(clock)
	}
	for _, shard := range shards {
		for _, line := range shard {
			id, node, err := dbg.UnmarshalNodeRecord(line)
			if err != nil {
				return nil, fmt.Errorf("core: loading segments: %w", err)
			}
			g.AddVertex(id, VData{Node: node})
		}
	}
	return g, nil
}

// DumpContigs writes contig records (per creating worker) to the store.
func DumpContigs(contigs [][]ContigRec, store *shardio.Store) error {
	shards := make([][]string, len(contigs))
	for w, shard := range contigs {
		for _, c := range shard {
			shards[w] = append(shards[w], dbg.MarshalNodeRecord(c.ID, &c.Node))
		}
	}
	return store.WriteShards(shards)
}

// LoadContigs reads contig records written by DumpContigs.
func LoadContigs(store *shardio.Store) ([][]ContigRec, error) {
	shards, err := store.ReadShards(0)
	if err != nil {
		return nil, err
	}
	out := make([][]ContigRec, len(shards))
	for w, shard := range shards {
		for _, line := range shard {
			id, node, err := dbg.UnmarshalNodeRecord(line)
			if err != nil {
				return nil, fmt.Errorf("core: loading contigs: %w", err)
			}
			if !dbg.IsContigID(id) {
				return nil, fmt.Errorf("core: record %x is not a contig", id)
			}
			out[w] = append(out[w], ContigRec{ID: id, Node: node})
		}
	}
	return out, nil
}
