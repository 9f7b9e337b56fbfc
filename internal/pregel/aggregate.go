package pregel

import (
	"maps"
	"math"
)

// aggVals is one set of aggregator values. Three aggregator families cover
// everything the assembler needs: int64 sums, int64 mins, and boolean ORs.
type aggVals struct {
	sum, min map[string]int64
	or       map[string]bool
}

func newAggVals() aggVals {
	return aggVals{sum: map[string]int64{}, min: map[string]int64{}, or: map[string]bool{}}
}

func (a *aggVals) clear() {
	clear(a.sum)
	clear(a.min)
	clear(a.or)
}

func (a *aggVals) addSum(name string, delta int64) { a.sum[name] += delta }

func (a *aggVals) addMin(name string, v int64) {
	if cur, ok := a.min[name]; !ok || v < cur {
		a.min[name] = v
	}
}

func (a *aggVals) addOr(name string, v bool) { a.or[name] = a.or[name] || v }

// aggState implements Pregel aggregators: values contributed during
// superstep S become readable by every vertex during superstep S+1.
//
// Nothing here takes a lock. During compute each worker folds its vertices'
// contributions into its own accumulator (acc[worker], written by that
// worker's goroutine only) and reads the published values (prev), which no
// one writes until the barrier. flip runs on the coordinator between
// supersteps: it merges the accumulators in worker order and publishes the
// result. All three operators are commutative and associative, so the merged
// values do not depend on how vertices were spread over workers.
type aggState struct {
	prev  aggVals   // published: the previous superstep's merged values
	spare aggVals   // the set flip merges into before swapping it with prev
	acc   []aggVals // per worker: the current superstep's contributions
}

func newAggState(workers int) *aggState {
	a := &aggState{prev: newAggVals(), spare: newAggVals(), acc: make([]aggVals, workers)}
	for i := range a.acc {
		a.acc[i] = newAggVals()
	}
	return a
}

// reset forgets everything, published and pending, at the start of a Run.
func (a *aggState) reset() {
	a.prev.clear()
	for i := range a.acc {
		a.acc[i].clear()
	}
}

// flip publishes the current superstep's aggregates and clears accumulators.
func (a *aggState) flip() {
	next := &a.spare
	next.clear()
	for i := range a.acc {
		w := &a.acc[i]
		for k, v := range w.sum {
			next.addSum(k, v)
		}
		for k, v := range w.min {
			next.addMin(k, v)
		}
		for k, v := range w.or {
			next.addOr(k, v)
		}
		w.clear()
	}
	a.prev, a.spare = a.spare, a.prev
}

// snapshot copies the published (previous-superstep) aggregator values for
// a checkpoint. It is taken at a superstep barrier, where the in-progress
// accumulators are empty by construction (flip just ran), so only the
// published values need persisting.
func (a *aggState) snapshot() aggSnapshot {
	return aggSnapshot{Sum: maps.Clone(a.prev.sum), Min: maps.Clone(a.prev.min), Or: maps.Clone(a.prev.or)}
}

// restore replaces the published values with a snapshot's and clears the
// accumulators, exactly the state the graph had at the checkpoint barrier.
func (a *aggState) restore(s aggSnapshot) {
	a.reset()
	maps.Copy(a.prev.sum, s.Sum)
	maps.Copy(a.prev.min, s.Min)
	maps.Copy(a.prev.or, s.Or)
}

func (a *aggState) prevMin(name string) (int64, bool) {
	if v, ok := a.prev.min[name]; ok {
		return v, true
	}
	return math.MaxInt64, false
}
