package pregel

import "slices"

// RequestRespond implements the request-respond API of Pregel+ that the
// paper's §II cites as the solution to workload skew: many vertices need an
// attribute of the same (possibly very high degree) target vertex; instead
// of each sending its own request — flooding the target with O(d) messages
// — every worker deduplicates its vertices' requests per target, the target
// answers each *worker* once, and the worker-local cache serves all of its
// requesters.
//
// One call runs a complete exchange as its own three-superstep job:
//
//	superstep 0: every vertex lists its targets (want); per-worker dedup
//	superstep 1: each target answers each requesting worker once
//	superstep 2: apply delivers the worker-cached answers to each vertex
//
// R is the response type derived from the target's value by answer. The
// returned stats show the deduplicated message counts (compare with
// vertex-level fan-in to see the skew win; see the package tests).
func RequestRespond[V, M, R any](
	g *Graph[V, M],
	want func(id VertexID, val *V) []VertexID,
	answer func(id VertexID, val *V) R,
	apply func(id VertexID, val *V, get func(VertexID) (R, bool)),
) (*Stats, error) {
	workers := g.cfg.Workers
	// Phase A (local, "superstep 0"): collect and deduplicate requests per
	// worker. This happens outside a vertex program because the engine's
	// message API is vertex-to-vertex; the dedup tables are worker state,
	// exactly as in Pregel+.
	requests := make([]map[VertexID]bool, workers)
	for w := range requests {
		requests[w] = map[VertexID]bool{}
	}
	computeNs := make([]float64, workers)
	g.ForEachWorker(func(w int, id VertexID, val *V) {
		start := nowNs()
		for _, t := range want(id, val) {
			requests[w][t] = true
		}
		computeNs[w] += float64(nowNs() - start)
	})
	// Requests to a target owned by the requesting worker itself stay
	// intra-machine; only cross-worker requests (and their responses) pay
	// the wire, mirroring the engine's two-tier network charge.
	reqCount, reqLocal := int64(0), int64(0)
	bytesOut := make([]float64, workers)
	localOut := make([]float64, workers)
	localReqs := make([]int64, workers)
	for w := range requests {
		reqCount += int64(len(requests[w]))
		for t := range requests[w] {
			if g.WorkerOf(t) == w {
				localReqs[w]++
			}
		}
		reqLocal += localReqs[w]
		bytesOut[w] = float64(int64(len(requests[w]))-localReqs[w]) * float64(g.cfg.MessageBytes)
		localOut[w] = float64(localReqs[w]) * float64(g.cfg.MessageBytes)
	}
	g.clock.ChargeSuperstepTiered(computeNs, bytesOut, localOut)

	// Phase B ("superstep 1"): resolve each deduplicated request against
	// the target's value and build per-worker caches.
	caches := make([]map[VertexID]R, workers)
	respNs := make([]float64, workers)
	answeredLocal := make([]int64, workers)
	dropped := int64(0)
	for w := range requests {
		caches[w] = make(map[VertexID]R, len(requests[w]))
		targets := make([]VertexID, 0, len(requests[w]))
		for t := range requests[w] {
			targets = append(targets, t)
		}
		slices.Sort(targets)
		start := nowNs()
		for _, t := range targets {
			val, ok := g.Value(t)
			if !ok {
				dropped++
				continue
			}
			caches[w][t] = answer(t, &val)
			if g.WorkerOf(t) == w {
				answeredLocal[w]++
			}
		}
		respNs[w] = float64(nowNs() - start)
	}
	respBytes := make([]float64, workers)
	respLocal := make([]float64, workers)
	for w := range caches {
		respBytes[w] = float64(int64(len(caches[w]))-answeredLocal[w]) * float64(g.cfg.MessageBytes)
		respLocal[w] = float64(answeredLocal[w]) * float64(g.cfg.MessageBytes)
	}
	g.clock.ChargeSuperstepTiered(respNs, respBytes, respLocal)

	// Phase C ("superstep 2"): every vertex reads the worker cache.
	applyNs := make([]float64, workers)
	g.ForEachWorker(func(w int, id VertexID, val *V) {
		start := nowNs()
		apply(id, val, func(t VertexID) (R, bool) {
			r, ok := caches[w][t]
			return r, ok
		})
		applyNs[w] += float64(nowNs() - start)
	})
	g.clock.ChargeSuperstep(applyNs, make([]float64, workers))

	local := reqLocal
	for _, n := range answeredLocal {
		local += n
	}
	g.clock.CountMessages(local, 2*reqCount-local)
	return &Stats{
		Name:            "request-respond",
		Workers:         workers,
		Supersteps:      3,
		Messages:        2 * reqCount,
		LocalMessages:   local,
		RemoteMessages:  2*reqCount - local,
		Bytes:           2 * reqCount * int64(g.cfg.MessageBytes),
		DroppedMessages: dropped,
		SimSeconds:      g.clock.Seconds(),
	}, nil
}
