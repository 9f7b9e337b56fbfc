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
	cfg = cfg.withDefaults()
	dst := NewGraph[V2, M2](cfg)
	dst.clock = src.clock
	if cfg.Tracer != nil {
		cfg.Tracer.Emit(telemetry.Event{
			Kind: telemetry.KindBegin, Name: "convert", Cat: "pregel",
			WallNs: nowNs(), SimNs: src.clock.Ns(),
			Args: []telemetry.Arg{telemetry.I("vertices", int64(src.VertexCount()))},
		})
	}

	// Map half, one task per source worker: fn's emits go to that source's
	// own per-destination buffers, so tasks share nothing. The conversion
	// shuffle is tiered like any other: a vertex emitted to its source
	// worker's own partition (under the destination graph's partitioner)
	// never crosses the wire.
	type emitBuf struct {
		ids  []VertexID
		vals []V2
	}
	nSrc, nDst := len(src.workers), len(dst.workers)
	bufs := make([][]emitBuf, nSrc) // [source][destination]
	convNs := make([]float64, max(nSrc, nDst))
	outBytes := make([]float64, nSrc)
	localBytes := make([]float64, nSrc)
	emitted := make([][2]int64, nSrc) // per source: local, remote
	forEachWorker(nSrc, cfg.Parallel, cfg.JobPrefix, "convert", func(s int) {
		w := src.workers[s]
		lanes := make([]emitBuf, nDst)
		bufs[s] = lanes
		// A full lane grows to its projected final size — what it holds
		// now, scaled by the share of the source still to scan — so a
		// one-to-one conversion allocates each lane once, at its first
		// emit, and a filtering one never reserves what it will not fill.
		pos, total := 0, len(w.ids)
		var local, remote int64
		emit := func(nid VertexID, nval V2) {
			d := dst.WorkerOf(nid)
			b := &lanes[d]
			if n := len(b.ids); n == min(cap(b.ids), cap(b.vals)) {
				grow := max((n+1)*total/(pos+1), 2*n) - n
				b.ids, b.vals = slices.Grow(b.ids, grow), slices.Grow(b.vals, grow)
			}
			b.ids, b.vals = append(b.ids, nid), append(b.vals, nval)
			if d == s {
				local++
			} else {
				remote++
			}
		}
		start := nowNs()
		for i, id := range w.ids {
			if !w.dead[i] {
				pos = i
				fn(id, w.vals[i], emit)
			}
		}
		convNs[s] = float64(nowNs() - start)
		emitted[s] = [2]int64{local, remote}
		localBytes[s] = float64(local) * float64(cfg.MessageBytes)
		outBytes[s] = float64(remote) * float64(cfg.MessageBytes)
	})

	// Install half, one task per destination worker: it takes the buffers
	// addressed to it in source-worker order, which is the order one
	// sequential pass over src would have inserted them in — so positions,
	// and which value survives a duplicated ID, do not depend on the
	// schedule. Count-first: the partition is sized once, from the source's
	// count under unchanged worker count, and is already ID-sorted when
	// placement is unchanged too.
	even := src.VertexCount()/nDst + 1
	forEachWorker(nDst, cfg.Parallel, cfg.JobPrefix, "convert", func(d int) {
		w := dst.workers[d]
		start := nowNs()
		n := even
		if nSrc == nDst {
			n = src.workers[d].vertexCount()
		}
		// A partition fed by one source lane only — every partition, under
		// unchanged placement — takes over that lane's value array instead
		// of copying it: each insert then lands at or before the slot it
		// was read from. (A lane shorter than n is copied after all:
		// reserve moves the partition to an array of its own.)
		var only *emitBuf
		feeds := 0
		for s := range bufs {
			if b := &bufs[s][d]; len(b.ids) > 0 {
				only, feeds = b, feeds+1
			}
		}
		if feeds != 1 {
			only = nil
		} else {
			w.vals = only.vals[:0]
		}
		w.reserve(n)
		for s := range bufs {
			b := &bufs[s][d]
			for i, id := range b.ids {
				w.add(id, b.vals[i])
			}
			if b == only {
				clear(b.vals[len(w.vals):]) // values a duplicated ID replaced
			}
			*b = emitBuf{}
		}
		if 2*len(w.ids) < cap(w.ids) {
			w.compactSort() // a filtering conversion: hand the slack back
		}
		convNs[d] += float64(nowNs() - start)
	})
	var emittedLocal, emittedRemote int64
	for _, e := range emitted {
		emittedLocal += e[0]
		emittedRemote += e[1]
	}
	dst.clock.ChargeSuperstepTiered(convNs, outBytes, localBytes)
	dst.clock.CountMessages(emittedLocal, emittedRemote)
	if cfg.Tracer != nil {
		cfg.Tracer.Emit(telemetry.Event{
			Kind: telemetry.KindEnd, Name: "convert", Cat: "pregel",
			WallNs: nowNs(), SimNs: dst.clock.Ns(),
			Args: []telemetry.Arg{telemetry.I("emitted", emittedLocal+emittedRemote)},
		})
	}
	return dst
}

// UseClock replaces g's simulated clock, letting independent graphs charge
// a shared end-to-end pipeline clock.
func (g *Graph[V, M]) UseClock(c *SimClock) { g.clock = c }

// SetTelemetry replaces the graph's tracer and metrics registry. A graph
// captures both in its Config at construction, so a sink installed later
// (e.g. by a mid-plan trace op) must be retrofitted explicitly; nil
// detaches.
func (g *Graph[V, M]) SetTelemetry(tr telemetry.Tracer, m *telemetry.Registry) {
	g.cfg.Tracer = tr
	g.cfg.Metrics = m
}
