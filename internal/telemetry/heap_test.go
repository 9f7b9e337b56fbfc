package telemetry

import (
	"runtime"
	"testing"
)

var heapSink []byte

// TestHeapWatch: a watch keeps the largest live-heap reading taken while
// it is open, an inner watch sees only its own window, and with no watch
// open SampleHeap reads nothing.
func TestHeapWatch(t *testing.T) {
	const n = 32 << 20
	outer := WatchHeap()
	heapSink = make([]byte, n)
	runtime.GC()
	SampleHeap()
	heapSink = nil
	runtime.GC()
	inner := WatchHeap()
	innerMax := inner.Close()
	outerMax := outer.Close()
	if outerMax < n {
		t.Errorf("outer watch peak %d, want at least the %d live bytes sampled inside it", outerMax, n)
	}
	if innerMax >= n {
		t.Errorf("inner watch peak %d, opened after the %d bytes died", innerMax, n)
	}
	if len(heapWatches.open) != 0 {
		t.Fatalf("%d watches left open", len(heapWatches.open))
	}
	if allocs := testing.AllocsPerRun(100, SampleHeap); allocs != 0 {
		t.Errorf("SampleHeap with no watch open allocates %.0f times", allocs)
	}
}
