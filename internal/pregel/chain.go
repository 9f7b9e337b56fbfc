package pregel

import "ppaassembler/internal/telemetry"

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

	// Count-first: most conversions keep about one vertex per source vertex
	// (on its worker, under the same placement), so each destination
	// partition is sized once from the source's counts and emits insert in
	// place — already ID-sorted when placement is unchanged.
	even := src.VertexCount()/len(dst.workers) + 1
	for d, w := range dst.workers {
		n := even
		if len(src.workers) == len(dst.workers) {
			n = src.workers[d].vertexCount()
		}
		w.reserve(n)
	}
	convNs := make([]float64, src.cfg.Workers)
	outBytes := make([]float64, src.cfg.Workers)
	localBytes := make([]float64, src.cfg.Workers)
	var nLocal, nRemote int64
	cur := -1
	var start int64
	emit := func(nid VertexID, nval V2) {
		// The conversion shuffle is tiered like any other: a vertex emitted
		// to its source worker's own partition (under the destination
		// graph's partitioner) never crosses the wire.
		d := dst.WorkerOf(nid)
		dst.workers[d].add(nid, nval)
		if d == cur {
			localBytes[cur] += float64(cfg.MessageBytes)
			nLocal++
		} else {
			outBytes[cur] += float64(cfg.MessageBytes)
			nRemote++
		}
	}
	src.ForEachWorker(func(w int, id VertexID, val *V1) {
		if w != cur {
			if cur >= 0 {
				convNs[cur] += float64(nowNs() - start)
			}
			cur = w
			start = nowNs()
		}
		fn(id, *val, emit)
	})
	if cur >= 0 {
		convNs[cur] += float64(nowNs() - start)
	}
	for _, w := range dst.workers {
		if 2*len(w.ids) < cap(w.ids) {
			w.compactSort() // a filtering conversion: hand the slack back
		}
	}
	dst.clock.ChargeSuperstepTiered(convNs, outBytes, localBytes)
	dst.clock.CountMessages(nLocal, nRemote)
	if cfg.Tracer != nil {
		cfg.Tracer.Emit(telemetry.Event{
			Kind: telemetry.KindEnd, Name: "convert", Cat: "pregel",
			WallNs: nowNs(), SimNs: dst.clock.Ns(),
			Args: []telemetry.Arg{telemetry.I("emitted", nLocal+nRemote)},
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
