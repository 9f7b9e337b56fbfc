package pregel

import (
	"fmt"
	"reflect"
	"testing"
)

// buildFuzzedGraph turns fuzz bytes into arbitrary mid-run engine state on
// a fresh graph: vertex IDs and values, halted and removed flags, a pending
// inbox arena with a consistent offset index, and aggregator values. It
// mirrors what a checkpoint taken at a superstep barrier must capture.
func buildFuzzedGraph(data []byte, workers int) *Graph[int64, int64] {
	g := NewGraph[int64, int64](Config{Workers: workers, CheckpointEvery: 1})
	take := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	n := int(take(0))%64 + 1
	for i := 0; i < n; i++ {
		g.AddVertex(VertexID(uint64(take(i+1))*131+uint64(i)), int64(int8(take(i+2)))*1000003)
	}
	// Runs snapshot post-sortVertices state; mirror that before poking at
	// worker internals.
	g.sortVertices()
	k := n + 3
	for _, w := range g.workers {
		for i := range w.ids {
			w.active[i] = take(k)%2 == 0
			k++
			if take(k)%7 == 0 && !w.dead[i] {
				w.dead[i] = true
				w.nDead++
			}
			k++
		}
		// Pending inbox: per-vertex message counts from the fuzz bytes,
		// laid out exactly as deliverTo would.
		nv := len(w.ids)
		off := int32(0)
		for i := 0; i < nv; i++ {
			w.inOff[i] = off
			off += int32(take(k) % 5)
			k++
		}
		w.inOff[nv] = off
		w.inArena = w.inArena[:0]
		for j := int32(0); j < off; j++ {
			w.inArena = append(w.inArena, int64(int8(take(k)))*917+int64(j))
			k++
		}
	}
	g.workers[int(take(k+3))%workers].ctx.agg = aggVals{Sum: int64(int8(take(k))), Or: take(k+2)%2 == 0}
	g.flipAgg()
	return g
}

// workerState flattens every field a checkpoint must preserve.
func workerState(g *Graph[int64, int64]) string {
	s := ""
	for wi, w := range g.workers {
		s += fmt.Sprintf("w%d ids=%v vals=%v active=%v dead=%v ndead=%d arena=%v off=%v\n",
			wi, w.ids, w.vals, w.active, w.dead, w.nDead, w.inArena, w.inOff[:len(w.ids)+1])
	}
	s += fmt.Sprintf("agg %+v", g.agg)
	return s
}

// FuzzCheckpointRoundTrip asserts checkpoint encode→decode is lossless for
// arbitrary vertex/inbox/aggregator state: snapshotting a graph, trashing
// it, and restoring must reproduce every field bit-for-bit, and the restored
// graph must compute exactly like the original.
func FuzzCheckpointRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint8(1))
	f.Add([]byte{255, 0, 128, 7, 7, 7, 200, 13}, uint8(4))
	f.Add([]byte{}, uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, workerByte uint8) {
		workers := int(workerByte)%8 + 1
		g := buildFuzzedGraph(data, workers)
		want := workerState(g)

		ck, err := g.newCkptRun("fuzz")
		if err != nil {
			t.Fatal(err)
		}
		stats := &Stats{}
		if err := g.saveCheckpoint(ck, 3, 17, stats); err != nil {
			t.Fatal(err)
		}

		// Trash the live state so the restore has to rebuild everything.
		for _, w := range g.workers {
			for i := range w.vals {
				w.vals[i] = -9
				w.active[i] = false
			}
			w.inArena = w.inArena[:0]
			for i := range w.inOff {
				w.inOff[i] = 0
			}
		}
		g.agg = aggVals{}

		file, ok, err := ck.loadCheckpoint()
		if err != nil || !ok {
			t.Fatalf("loadCheckpoint: ok=%v err=%v", ok, err)
		}
		step, pending, err := g.restoreCheckpoint(file, stats)
		if err != nil {
			t.Fatal(err)
		}
		if step != 3 || pending != 17 {
			t.Fatalf("restored (step=%d pending=%d), want (3, 17)", step, pending)
		}
		if got := workerState(g); got != want {
			t.Fatalf("checkpoint round trip lost state:\nwant %s\ngot  %s", want, got)
		}
		// The position index must agree with the restored ID slices.
		for wi, w := range g.workers {
			checkVindex(t, fmt.Sprintf("worker %d", wi), &w.idx, w.ids)
		}
	})
}

// TestCheckpointRoundTripSeeds runs the fuzz seeds as a plain test so `go
// test` (without -fuzz) still covers the round-trip property, mirroring
// TestFuzzSeedsRunClean.
func TestCheckpointRoundTripSeeds(t *testing.T) {
	seeds := []struct {
		data    []byte
		workers uint8
	}{
		{[]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1},
		{[]byte{255, 0, 128, 7, 7, 7, 200, 13}, 4},
		{[]byte{}, 7},
		{[]byte{42, 42, 42, 0, 0, 0, 0, 9, 9, 9, 9, 9, 1, 3, 5}, 3},
	}
	for _, s := range seeds {
		workers := int(s.workers)%8 + 1
		g := buildFuzzedGraph(s.data, workers)
		want := workerState(g)
		ck, err := g.newCkptRun("seed")
		if err != nil {
			t.Fatal(err)
		}
		stats := &Stats{}
		if err := g.saveCheckpoint(ck, 1, 0, stats); err != nil {
			t.Fatal(err)
		}
		g.agg = aggVals{}
		for _, w := range g.workers {
			for i := range w.vals {
				w.vals[i] = 0
			}
		}
		file, ok, err := ck.loadCheckpoint()
		if err != nil || !ok {
			t.Fatalf("loadCheckpoint: ok=%v err=%v", ok, err)
		}
		if _, _, err := g.restoreCheckpoint(file, stats); err != nil {
			t.Fatal(err)
		}
		if got := workerState(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed round trip lost state:\nwant %s\ngot  %s", want, got)
		}
	}
}
