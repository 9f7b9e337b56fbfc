package pregel

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
)

// profLabelsOn gates runtime/pprof labels on engine goroutines. Off by
// default: attaching labels allocates a label set per task, which would
// show up in the engine's allocation fences. CLIs that write CPU/heap
// profiles flip it on so samples segment by job, phase and worker.
var profLabelsOn atomic.Bool

// EnableProfLabels toggles pprof labels (job name, phase, worker id) on the
// engine's compute, delivery, checkpoint, convert and MapReduce tasks.
// ppa-assembler enables it whenever -cpuprofile or -memprofile is set, so
// `go tool pprof -tagfocus phase=compute` isolates one phase.
func EnableProfLabels(on bool) { profLabelsOn.Store(on) }

// ProfLabelsEnabled reports whether labels are currently attached.
func ProfLabelsEnabled() bool { return profLabelsOn.Load() }

// forEachWorker is the engine's one executor: every per-worker phase
// (compute, delivery, checkpoint encode, vertex sort, Convert, MapReduce map
// and reduce) runs fn(w) for each worker index through it. Sequentially on
// the caller when parallel is unset; otherwise min(workers, GOMAXPROCS)
// goroutines — the caller is one of them — claim indices from an atomic
// counter. Bounding the pool by the core count is what keeps a task's
// measured nanoseconds its own: a logical worker is never time-sliced
// against its siblings while it is being timed for the simulated clock, and
// at most that many tasks' scratch is live at once. A task therefore must
// not wait on another task: its peer may not have been claimed yet.
//
// With pprof labels on, every task carries job, phase and worker labels.
func forEachWorker(workers int, parallel bool, job, phase string, fn func(w int)) {
	if profLabelsOn.Load() {
		if job == "" {
			job = "run"
		}
		plain := fn
		fn = func(w int) {
			pprof.Do(context.Background(),
				pprof.Labels("job", job, "phase", phase, "worker", strconv.Itoa(w)),
				func(context.Context) { plain(w) })
		}
	}
	pool := 1
	if parallel {
		pool = min(workers, runtime.GOMAXPROCS(0))
	}
	if pool <= 1 {
		for w := 0; w < workers; w++ {
			fn(w)
		}
		return
	}
	var next atomic.Int64
	claim := func() {
		for w := int(next.Add(1)) - 1; w < workers; w = int(next.Add(1)) - 1 {
			fn(w)
		}
	}
	var wg sync.WaitGroup
	wg.Add(pool - 1)
	for i := 1; i < pool; i++ {
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
}
