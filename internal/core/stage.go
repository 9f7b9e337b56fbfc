package core

import (
	"encoding/hex"
	"fmt"

	"ppaassembler/internal/dbg"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/shardio"
)

// Staging: every operation can hand its output to the next job in memory
// (pregel.Convert — the Pregel+ extension of §II) or dump it to the sharded
// store and reload it later, which is how the paper positions HDFS between
// jobs of different systems. These helpers stage the segment graph and
// contig sets as one part-file per worker. A record is one node's
// checkpoint encoding (dbg.Node.AppendCheckpoint, which carries the node's
// own ID), hex-encoded to one line, so a staged node reloads in the form it
// was dumped in: a derived k-mer stays derived.

// nodeRecord encodes n as one store line.
func nodeRecord(n *dbg.Node) string { return hex.EncodeToString(n.AppendCheckpoint(nil)) }

// parseNodeRecord inverts nodeRecord. It refuses bad hex, an encoding
// Node.DecodeCheckpoint rejects, and trailing bytes.
func parseNodeRecord(line string) (dbg.Node, error) {
	var n dbg.Node
	raw, err := hex.DecodeString(line)
	if err != nil {
		return n, err
	}
	rest, err := n.DecodeCheckpoint(raw)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%d trailing bytes in node record", len(rest))
	}
	return n, err
}

// DumpSegments writes every live vertex's segment node to the store, one
// part-file per owning worker. Per-job scratch state (labels, pointers) is
// deliberately not persisted: operations exchange vertex data, not job
// state.
func DumpSegments(g *Graph, store *shardio.Store) error {
	shards := make([][]string, g.Workers())
	g.ForEachWorker(func(w int, _ pregel.VertexID, v *VData) {
		shards[w] = append(shards[w], nodeRecord(&v.Node))
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
			node, err := parseNodeRecord(line)
			if err != nil {
				return nil, fmt.Errorf("core: loading segments: %w", err)
			}
			g.AddVertex(node.ID, VData{Node: node})
		}
	}
	return g, nil
}

// DumpContigs writes contig records (per creating worker) to the store.
func DumpContigs(contigs [][]ContigRec, store *shardio.Store) error {
	shards := make([][]string, len(contigs))
	for w, shard := range contigs {
		for _, c := range shard {
			shards[w] = append(shards[w], nodeRecord(&c.Node))
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
			node, err := parseNodeRecord(line)
			if err != nil {
				return nil, fmt.Errorf("core: loading contigs: %w", err)
			}
			if !dbg.IsContigID(node.ID) || node.Kind != dbg.KindContig {
				return nil, fmt.Errorf("core: record %x is not a contig", node.ID)
			}
			out[w] = append(out[w], ContigRec{ID: node.ID, Node: node})
		}
	}
	return out, nil
}
