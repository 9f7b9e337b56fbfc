package pregel

// aggEntry is one aggregator: its name and current value.
type aggEntry[T any] struct {
	name string
	val  T
}

// aggFind returns name's value in s, or nil. A job registers a handful of
// names, and a Context looks one up only when its accessor is handed a
// different name than last time (aggMemo), so a scan over a few entries
// (lengths, then one pointer compare for the constant names jobs use) beats
// hashing the name.
func aggFind[T any](s []aggEntry[T], name string) *T {
	for i := range s {
		if s[i].name == name {
			return &s[i].val
		}
	}
	return nil
}

// aggSlot returns name's value in *s, adding a zero entry if absent.
func aggSlot[T any](s *[]aggEntry[T], name string) *T {
	if v := aggFind(*s, name); v != nil {
		return v
	}
	*s = append(*s, aggEntry[T]{name: name})
	return &(*s)[len(*s)-1].val
}

// aggMemo is one Context accessor's memory of the last aggregator name it
// resolved and what that resolved to.
type aggMemo[T any] struct {
	name string
	val  T
}

// aggVals is one set of aggregator values. Two aggregator families cover
// everything the assembler needs: int64 sums (list ranking) and boolean ORs
// (S-V labeling).
type aggVals struct {
	sum []aggEntry[int64]
	or  []aggEntry[bool]
}

func (a *aggVals) clear() { a.sum, a.or = a.sum[:0], a.or[:0] }

func (a *aggVals) addSum(name string, delta int64) {
	v := aggSlot(&a.sum, name)
	*v += delta
}

func (a *aggVals) addOr(name string, x bool) {
	v := aggSlot(&a.or, name)
	*v = *v || x
}

// aggState implements Pregel aggregators: values contributed during
// superstep S become readable by every vertex during superstep S+1.
//
// Nothing here takes a lock. During compute each worker folds its vertices'
// contributions into its own accumulator (acc[worker], written by that
// worker's goroutine only) and reads the published values (prev), which no
// one writes until the barrier. flip runs on the coordinator between
// supersteps: it merges the accumulators in worker order and publishes the
// result. Both operators are commutative and associative, so the merged
// values do not depend on how vertices were spread over workers.
type aggState struct {
	prev  aggVals   // published: the previous superstep's merged values
	spare aggVals   // the set flip merges into before swapping it with prev
	acc   []aggVals // per worker: the current superstep's contributions
}

func newAggState(workers int) *aggState {
	return &aggState{acc: make([]aggVals, workers)}
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
		for _, e := range w.sum {
			next.addSum(e.name, e.val)
		}
		for _, e := range w.or {
			next.addOr(e.name, e.val)
		}
		w.clear()
	}
	a.prev, a.spare = a.spare, a.prev
}

func aggMap[T any](s []aggEntry[T]) map[string]T {
	m := make(map[string]T, len(s))
	for _, e := range s {
		m[e.name] = e.val
	}
	return m
}

func aggEntries[T any](s []aggEntry[T], m map[string]T) []aggEntry[T] {
	for name, val := range m {
		s = append(s, aggEntry[T]{name, val})
	}
	return s
}

// snapshot copies the published (previous-superstep) aggregator values for
// a checkpoint. It is taken at a superstep barrier, where the in-progress
// accumulators are empty by construction (flip just ran), so only the
// published values need persisting.
func (a *aggState) snapshot() aggSnapshot {
	return aggSnapshot{Sum: aggMap(a.prev.sum), Or: aggMap(a.prev.or)}
}

// restore replaces the published values with a snapshot's and clears the
// accumulators, exactly the state the graph had at the checkpoint barrier.
func (a *aggState) restore(s aggSnapshot) {
	a.reset()
	a.prev.sum = aggEntries(a.prev.sum, s.Sum)
	a.prev.or = aggEntries(a.prev.or, s.Or)
}

func (a *aggState) prevSum(name string) int64 {
	if v := aggFind(a.prev.sum, name); v != nil {
		return *v
	}
	return 0
}

func (a *aggState) prevOr(name string) bool {
	v := aggFind(a.prev.or, name)
	return v != nil && *v
}
