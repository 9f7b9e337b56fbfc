package pregel

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// goroutineID parses the current goroutine's number out of its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestForEachWorkerPool pins the executor's contract: every index runs
// exactly once; a parallel pass keeps exactly min(workers, GOMAXPROCS) tasks
// in flight when that many are available and never more; with a bound of
// one — sequential mode, one worker, or one core — nothing leaves the
// calling goroutine; and with pprof labels on, each task carries its own
// worker label.
func TestForEachWorkerPool(t *testing.T) {
	for _, procs := range []int{1, 2, 3} {
		for _, workers := range []int{0, 1, 2, 5, 33} {
			for _, parallel := range []bool{false, true} {
				name := fmt.Sprintf("procs%d-w%d-par%v", procs, workers, parallel)
				t.Run(name, func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					bound := 1
					if parallel {
						bound = max(1, min(workers, procs))
					}
					caller := goroutineID()
					runs := make([]atomic.Int32, workers)
					var inFlight, peak atomic.Int32
					full := make(chan struct{}) // closed once bound tasks are in flight together
					var fullOnce sync.Once
					forEachWorker(workers, parallel, "pool", "test", func(w int) {
						runs[w].Add(1)
						n := inFlight.Add(1)
						for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
						}
						if int(n) == bound {
							fullOnce.Do(func() { close(full) })
						}
						if bound == 1 && goroutineID() != caller {
							t.Errorf("task %d left the calling goroutine although the pool bound is 1", w)
						}
						if w < bound {
							// The first bound tasks hold their slots until all
							// of them run at once: a smaller pool times out.
							select {
							case <-full:
							case <-time.After(5 * time.Second):
								t.Errorf("task %d: pool never had %d tasks in flight", w, bound)
							}
						}
						inFlight.Add(-1)
					})
					for w := range runs {
						if n := runs[w].Load(); n != 1 {
							t.Errorf("index %d ran %d times", w, n)
						}
					}
					if p := int(peak.Load()); p > bound {
						t.Errorf("%d tasks in flight, bound is %d", p, bound)
					}
				})
			}
		}
	}
	t.Run("labels", func(t *testing.T) {
		EnableProfLabels(true)
		defer EnableProfLabels(false)
		for _, parallel := range []bool{false, true} {
			forEachWorker(5, parallel, "labeljob", "labelphase", func(w int) {
				var buf bytes.Buffer
				if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
					t.Error(err)
					return
				}
				want := fmt.Sprintf(`{"job":"labeljob", "phase":"labelphase", "worker":"%d"}`, w)
				if !strings.Contains(buf.String(), want) {
					t.Errorf("parallel=%v task %d: no goroutine carries labels %s", parallel, w, want)
				}
			})
		}
	})
}
