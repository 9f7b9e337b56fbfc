package telemetry

import (
	"runtime/metrics"
	"sync"
)

// HeapWatch is the largest live-heap reading (/gc/heap/live:bytes) taken
// between WatchHeap and Close: the peak-live-heap arg of op and job End
// spans. Readings are taken when a watch opens or closes and wherever a
// traced run calls SampleHeap: at every superstep barrier and every
// MapReduce phase boundary. The live heap is process-wide and only moves
// when a GC cycle finishes, so the maximum is a lower bound on the true
// peak of whatever ran meanwhile. Only traced runs open watches; SampleHeap
// with none open reads nothing.
type HeapWatch struct{ max uint64 }

var heapWatches struct {
	mu   sync.Mutex
	open []*HeapWatch
}

// WatchHeap opens a watch and takes its first reading.
func WatchHeap() *HeapWatch {
	w := &HeapWatch{}
	heapWatches.mu.Lock()
	heapWatches.open = append(heapWatches.open, w)
	heapWatches.mu.Unlock()
	SampleHeap()
	return w
}

// SampleHeap reads the live heap once and raises every open watch to it.
func SampleHeap() {
	heapWatches.mu.Lock()
	defer heapWatches.mu.Unlock()
	if len(heapWatches.open) == 0 {
		return
	}
	s := [1]metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s[:])
	v := s[0].Value.Uint64()
	for _, w := range heapWatches.open {
		w.max = max(w.max, v)
	}
}

// Close takes a last reading, closes the watch and returns its maximum.
func (w *HeapWatch) Close() int64 {
	SampleHeap()
	heapWatches.mu.Lock()
	defer heapWatches.mu.Unlock()
	for i, o := range heapWatches.open {
		if o == w {
			heapWatches.open = append(heapWatches.open[:i], heapWatches.open[i+1:]...)
			break
		}
	}
	return int64(w.max)
}
