package pregel

import (
	"slices"

	"ppaassembler/internal/telemetry"
)

// Convert is the paper's second Pregel+ API extension (§II): in-memory job
// concatenation. It transforms the vertex set of a finished job j (graph
// src, vertex class V1) into the input vertex set of the next job j′
// (vertex class V2) without a round trip through the distributed file
// system. The UDF fn is called once per source vertex and may emit zero or
// more (id, value) vertices for the new graph; emitted vertices are
// shuffled to their owning worker by vertex-ID hash, exactly as on load.
//
// The new graph shares src's simulated clock, so a pipeline of chained jobs
// accumulates one end-to-end time. The conversion itself is charged as one
// shuffle round.
func Convert[V2, M2, V1, M1 any](
	src *Graph[V1, M1],
	cfg Config,
	fn func(id VertexID, val V1, emit func(VertexID, V2)),
) *Graph[V2, M2] {
	dst := NewGraph[V2, M2](cfg)
	dst.clock = src.clock
	dst.install(len(src.workers),
		func(s int) int { return len(src.workers[s].ids) },
		func(s, i int, emit func(VertexID, V2)) {
			if w := src.workers[s]; !w.dead[i] {
				fn(w.ids[i], w.vals[i], emit)
			}
		})
	return dst
}

// LoadShards bulk-inserts records, vertex projecting each to its (ID,
// value): Convert's in-memory hand-over, from a job's output shards instead
// of a graph, charged to g's clock the same way. Every vertex lands where
// AddVertex, called on shards[0]'s records in order, then shards[1]'s,
// would put it. Shards grouped through g's partitioner and ID-sorted —
// reducer output under MRConfig.Routed — become the workers' partitions as
// they are projected, with no re-shard and no sort.
func LoadShards[V, M, T any](g *Graph[V, M], shards [][]T, vertex func(*T) (VertexID, V)) {
	g.install(len(shards),
		func(s int) int { return len(shards[s]) },
		func(s, i int, emit func(VertexID, V)) { emit(vertex(&shards[s][i])) })
}

// lane is one source's emits addressed to one destination worker.
type lane[V any] struct {
	ids  []VertexID
	vals []V
}

// install is the one bulk load behind Convert and LoadShards: source s has
// size(s) items, and each(s, i, emit) turns item i into zero or more
// vertices.
//
// Map half, one task per source: emits go to the source's own
// per-destination lanes, so tasks share nothing, and an emit to the
// source's own worker never crosses the wire. A full lane grows to its projected
// final size — what it holds now, scaled by the share of the source still
// to scan — so a one-to-one load allocates each lane once and a filtering
// one never reserves what it will not fill.
//
// Install half, one task per destination: it takes its lanes in source
// order, the order one sequential pass would insert them in, so positions,
// and which value survives a repeated ID, do not depend on the schedule. An
// empty partition fed by one strictly ascending lane (every partition under
// unchanged placement) takes that lane over and indexes it once; any other
// is sized once, from its lanes' total, and filled by add.
func (g *Graph[V, M]) install(nSrc int, size func(s int) int, each func(s, i int, emit func(VertexID, V))) {
	cfg, nDst, items := g.cfg, len(g.workers), 0
	for s := range nSrc {
		items += size(s)
	}
	if cfg.Tracer != nil {
		cfg.Tracer.Emit(telemetry.Event{
			Kind: telemetry.KindBegin, Name: "convert", Cat: "pregel",
			WallNs: nowNs(), SimNs: g.clock.Ns(),
			Args: []telemetry.Arg{telemetry.I("vertices", int64(items))},
		})
	}
	lanes := make([][]lane[V], nSrc) // [source][destination]
	convNs := make([]float64, max(nSrc, nDst))
	emitted := make([][2]int64, nSrc) // per source: local, remote
	forEachWorker(nSrc, cfg.Parallel, cfg.JobPrefix, "convert", func(s int) {
		out := make([]lane[V], nDst)
		lanes[s] = out
		pos, total := 0, size(s)
		var local, remote int64
		emit := func(id VertexID, val V) {
			d := g.WorkerOf(id)
			b := &out[d]
			if n := len(b.ids); n == min(cap(b.ids), cap(b.vals)) {
				grow := max((n+1)*total/(pos+1), 2*n) - n
				b.ids, b.vals = slices.Grow(b.ids, grow), slices.Grow(b.vals, grow)
			}
			b.ids, b.vals = append(b.ids, id), append(b.vals, val)
			if d == s {
				local++
			} else {
				remote++
			}
		}
		start := nowNs()
		for pos = 0; pos < total; pos++ {
			each(s, pos, emit)
		}
		convNs[s] = float64(nowNs() - start)
		emitted[s] = [2]int64{local, remote}
	})
	forEachWorker(nDst, cfg.Parallel, cfg.JobPrefix, "convert", func(d int) {
		w := g.workers[d]
		start := nowNs()
		n, feeds := 0, 0
		var only *lane[V]
		for s := range lanes {
			if b := &lanes[s][d]; len(b.ids) > 0 {
				n, feeds, only = n+len(b.ids), feeds+1, b
			}
		}
		adopt := feeds == 1 && len(w.ids) == 0
		for i := 1; adopt && i < n; i++ {
			adopt = only.ids[i-1] < only.ids[i]
		}
		if adopt {
			w.ids, w.vals = only.ids, only.vals
			w.active, w.dead = make([]bool, n), make([]bool, n)
			for i := range w.active {
				w.active[i] = true
			}
			w.idx.rebuild(w.ids, n)
			w.lazy = false
		} else {
			w.reserve(n)
			for s := range lanes {
				b := &lanes[s][d]
				for i, id := range b.ids {
					w.add(id, b.vals[i])
				}
			}
		}
		convNs[d] += float64(nowNs() - start)
	})
	outBytes, localBytes := make([]float64, nSrc), make([]float64, nSrc)
	var local, remote int64
	for s, e := range emitted {
		localBytes[s], outBytes[s] = float64(e[0])*float64(cfg.MessageBytes), float64(e[1])*float64(cfg.MessageBytes)
		local, remote = local+e[0], remote+e[1]
	}
	g.clock.ChargeSuperstepTiered(convNs, outBytes, localBytes)
	g.clock.CountMessages(local, remote)
	if cfg.Tracer != nil {
		cfg.Tracer.Emit(telemetry.Event{
			Kind: telemetry.KindEnd, Name: "convert", Cat: "pregel",
			WallNs: nowNs(), SimNs: g.clock.Ns(),
			Args: []telemetry.Arg{telemetry.I("emitted", local+remote)},
		})
	}
}

// UseClock replaces g's simulated clock, letting independent graphs charge
// a shared end-to-end pipeline clock.
func (g *Graph[V, M]) UseClock(c *SimClock) { g.clock = c }
