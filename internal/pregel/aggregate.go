package pregel

// aggVals is one job's aggregators, as Pregel+ gives a job one aggregator
// rather than Pregel's open set of named ones: an int64 sum (list ranking
// counts its undone sides) and a boolean OR (S-V's changed flag). Values
// contributed during superstep S become readable by every vertex during
// superstep S+1.
//
// Nothing here takes a lock. During compute each worker adds its vertices'
// contributions into its own Context (written by that worker's goroutine
// only) and reads the published values from the copy runWorker put there.
// At the barrier the coordinator folds the workers' contributions in worker
// order and publishes the result (Graph.flipAgg). Both operators are
// commutative and associative, so the merged values do not depend on how
// vertices were spread over workers.
type aggVals struct {
	Sum int64
	Or  bool
}

// add folds o's contributions into a.
func (a *aggVals) add(o aggVals) {
	a.Sum += o.Sum
	a.Or = a.Or || o.Or
}

// flipAgg publishes the superstep's aggregates: every worker's
// contributions, folded in worker order. runWorker starts each worker's
// next superstep with a fresh Context, so nothing needs clearing here.
func (g *Graph[V, M]) flipAgg() {
	var next aggVals
	for _, w := range g.workers {
		next.add(w.ctx.agg)
	}
	g.agg = next
}
