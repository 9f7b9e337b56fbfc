package pregel

import "testing"

// BenchmarkSuperstepOverhead measures the engine's fixed per-superstep cost
// on a graph where every vertex does trivial work.
func BenchmarkSuperstepOverhead(b *testing.B) {
	g := NewGraph[int, int](Config{Workers: 4})
	const n = 10_000
	for i := 0; i < n; i++ {
		g.AddVertex(VertexID(i), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := g.Run(func(ctx *Context[int], id VertexID, val *int, msgs []int) {
			if ctx.Superstep() < 3 {
				return
			}
			ctx.VoteToHalt()
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMessageThroughput measures message routing: every vertex sends
// to a pseudo-random peer each superstep for 4 supersteps.
func BenchmarkMessageThroughput(b *testing.B) {
	const n = 10_000
	g := NewGraph[int, int](Config{Workers: 4})
	for i := 0; i < n; i++ {
		g.AddVertex(VertexID(i), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := g.Run(func(ctx *Context[int], id VertexID, val *int, msgs []int) {
			for _, m := range msgs {
				*val += m
			}
			if ctx.Superstep() >= 4 {
				ctx.VoteToHalt()
				return
			}
			ctx.Send((id*2654435761+1)%n, 1)
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(st.Messages), "msgs/op")
	}
}

// BenchmarkShuffle is the engine's shuffle-heavy regression workload: 20k
// vertices each fan out 8 messages per superstep for 6 supersteps, with and
// without the parallel schedule; msgs/s tracks end-to-end shuffle
// throughput. Its allocs/op are mostly the graph's one-off lane warm-up
// spread over b.N, so they move with -benchtime; the per-Run ceiling is
// TestShuffleSteadyStateAllocationFree's. The root package's fence test
// runs the same workload once per schedule and gates its traffic.
func BenchmarkShuffle(b *testing.B) {
	for _, mode := range []struct {
		name     string
		parallel bool
	}{
		{"sequential", false},
		{"parallel", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			st, msgs := runShuffleWorkload(b, mode.parallel, 4)
			_ = st
			b.ReportMetric(float64(msgs)/b.Elapsed().Seconds(), "msgs/s")
		})
	}
}

// runShuffleWorkload runs the canonical shuffle benchmark job b.N times and
// returns the last run's stats plus total messages across all runs.
func runShuffleWorkload(b *testing.B, parallel bool, workers int) (*Stats, int64) {
	b.Helper()
	const (
		n      = 20_000
		fanout = 8
		steps  = 6
	)
	g := NewGraph[int64, int64](Config{Workers: workers, Parallel: parallel})
	for i := 0; i < n; i++ {
		g.AddVertex(VertexID(i), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var st *Stats
	var err error
	var msgs int64
	for i := 0; i < b.N; i++ {
		st, err = g.Run(func(ctx *Context[int64], id VertexID, val *int64, in []int64) {
			for _, m := range in {
				*val += m
			}
			if ctx.Superstep() >= steps {
				ctx.VoteToHalt()
				return
			}
			for j := 0; j < fanout; j++ {
				ctx.Send(VertexID((uint64(id)*2654435761+uint64(j)*40503+7)%n), int64(id)+int64(j))
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		msgs += st.Messages
	}
	return st, msgs
}

// benchWorker builds the synthetic int64-valued partition of the codec
// benchmarks and fences: full-range IDs, mixed active/halted flags, a
// sprinkle of dead vertices and a ragged pending inbox.
func benchWorker(vertices, msgsPerVertex int) *worker[int64, int64] {
	w := &worker[int64, int64]{
		verts: &verts[int64]{
			ids:    make([]VertexID, vertices),
			vals:   make([]int64, vertices),
			active: make([]bool, vertices),
			dead:   make([]bool, vertices),
		},
		inOff: make([]int32, vertices+1),
		inCur: make([]int32, vertices),
	}
	for i := 0; i < vertices; i++ {
		w.ids[i] = VertexID(uint64(i)*0x9e3779b97f4a7c15 ^ 0xb5ad4eceda1ce2a9)
		w.vals[i] = int64(i)*1_000_003 - 500_000
		w.active[i] = i%3 != 0
		if i%97 == 0 {
			w.dead[i] = true
			w.nDead++
		}
		w.inOff[i+1] = w.inOff[i]
		if i%2 == 0 {
			for j := 0; j < msgsPerVertex; j++ {
				w.inArena = append(w.inArena, int64(i+j)*31)
				w.inOff[i+1]++
			}
		}
	}
	return w
}

// BenchmarkCheckpointCodec measures full-snapshot encode/decode through
// the binary worker-section codec, plus the delta encoder, on the synthetic
// partition TestCheckpointCodecSizeFence gates the sizes of.
func BenchmarkCheckpointCodec(b *testing.B) {
	const vertices, msgsPerVertex = 50_000, 2
	w := benchWorker(vertices, msgsPerVertex)
	blob := encodeWorkerFull(w)

	b.Run("encode-binary", func(b *testing.B) {
		b.SetBytes(int64(len(blob)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			encodeWorkerFull(w)
		}
	})
	b.Run("decode-binary", func(b *testing.B) {
		b.SetBytes(int64(len(blob)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeWorkerSection[int64, int64](blob); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode-delta", func(b *testing.B) {
		w.dirty = make([]bool, vertices)
		for i := 0; i < vertices; i += 20 {
			w.dirty[i] = true
		}
		delta := encodeWorkerDelta(w)
		b.SetBytes(int64(len(delta)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			encodeWorkerDelta(w)
		}
	})
}

// BenchmarkMapReduceShuffle measures the mini-MapReduce over 100k pairs.
func BenchmarkMapReduceShuffle(b *testing.B) {
	const n = 100_000
	items := make([]uint64, n)
	for i := range items {
		items[i] = uint64(i % 997)
	}
	shards := ShardSlice(items, 4)
	clock := NewSimClock(DefaultCost())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _ := MapReduce(
			clock, 4, 8, shards,
			func(w int, item uint64, emit func(uint64, uint64)) { emit(item, 1) },
			Uint64Hash,
			func(a, c uint64) bool { return a < c },
			func(w int, key uint64, vals []uint64, emit func(uint64)) { emit(uint64(len(vals))) },
		)
		if len(Flatten(out)) != 997 {
			b.Fatal("wrong group count")
		}
	}
}

// BenchmarkMapReduceGroup is the reduce-side grouping fence: 200k pairs and
// a 32-byte value, so ns/op tracks the sort and B/op the key, permutation and
// value arenas. "struct" has a two-field key (the comparison sort: 5k keys,
// 40 values each, every key in every lane); "kmer44" has uint64 keys shaped
// like (k+1)-mer IDs at k+1 = 22 — 44 significant bits, 100k distinct, two
// values each — which is the radix path DBG construction takes.
func BenchmarkMapReduceGroup(b *testing.B) {
	type val struct{ span, weight, lo, hi float64 }
	const n = 200_000
	items := make([]uint64, n)
	for i := range items {
		items[i] = uint64(i * 7919)
	}
	shards := ShardSlice(items, 4)
	clock := NewSimClock(DefaultCost())

	b.Run("struct", func(b *testing.B) {
		type key struct{ a, b uint64 }
		const keys = 5_000
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, _ := MapReduce(
				clock, 4, 48, shards,
				func(w int, item uint64, emit func(key, val)) {
					item %= keys
					emit(key{item % 71, item / 71}, val{span: float64(item)})
				},
				func(k key) uint64 { return Uint64Hash(k.a<<32 | k.b) },
				func(x, y key) bool { return x.a < y.a || x.a == y.a && x.b < y.b },
				func(w int, _ key, vals []val, emit func(int)) { emit(len(vals)) },
			)
			if len(Flatten(out)) != keys {
				b.Fatal("wrong group count")
			}
		}
	})
	b.Run("kmer44", func(b *testing.B) {
		const keys = n / 2
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, _ := MapReduce(
				clock, 4, 48, shards,
				func(w int, item uint64, emit func(uint64, val)) {
					item %= keys
					emit(Uint64Hash(item)>>20, val{span: float64(item)})
				},
				Uint64Hash, lessU64,
				func(w int, _ uint64, vals []val, emit func(int)) { emit(len(vals)) },
			)
			if len(Flatten(out)) != keys {
				b.Fatal("wrong group count")
			}
		}
	})
}

// convertVal is a segment-graph-sized (≈200-byte, pointerful) vertex value.
type convertVal struct {
	seq  []byte
	pad  [20]uint64
	next VertexID
}

// sortedGraph builds a 4-worker graph of n ID-ordered vertices.
func sortedGraph(n int) *Graph[uint32, struct{}] {
	g := NewGraph[uint32, struct{}](Config{Workers: 4})
	for i := 0; i < n; i++ {
		g.AddVertex(VertexID(i), uint32(i))
	}
	return g
}

func convertSorted(src *Graph[uint32, struct{}], parallel bool) *Graph[convertVal, struct{}] {
	return Convert[convertVal, struct{}](src, Config{Workers: 4, Parallel: parallel},
		func(id VertexID, v uint32, emit func(VertexID, convertVal)) {
			emit(id, convertVal{next: id + 1})
		})
}

// BenchmarkConvert is the graph-load fence: a one-to-one Convert of 100k
// vertices into 200-byte values under unchanged placement, plus the first
// Run's sortVertices (which must find nothing to do), on one goroutine and
// on the executor. B/op should stay near one copy of the destination
// arrays: under unchanged placement a partition adopts its one emit lane.
func BenchmarkConvert(b *testing.B) {
	src := sortedGraph(100_000)
	for _, mode := range []struct {
		name     string
		parallel bool
	}{{"sequential", false}, {"parallel", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst := convertSorted(src, mode.parallel)
				dst.sortVertices()
				if dst.VertexCount() != 100_000 {
					b.Fatal("wrong vertex count")
				}
			}
		})
	}
}

// BenchmarkCombinerWin shows the traffic reduction from a sum combiner on
// an all-to-one pattern.
func BenchmarkCombinerWin(b *testing.B) {
	for _, combine := range []bool{false, true} {
		name := "plain"
		if combine {
			name = "combined"
		}
		b.Run(name, func(b *testing.B) {
			const n = 20_000
			g := NewGraph[int, int](Config{Workers: 4})
			if combine {
				g.SetCombiner(func(a, c int) int { return a + c })
			}
			for i := 0; i < n; i++ {
				g.AddVertex(VertexID(i), 0)
			}
			b.ResetTimer()
			var msgs int64
			for i := 0; i < b.N; i++ {
				st, err := g.Run(func(ctx *Context[int], id VertexID, val *int, msgs []int) {
					if ctx.Superstep() == 0 {
						ctx.Send(0, 1)
					}
					ctx.VoteToHalt()
				})
				if err != nil {
					b.Fatal(err)
				}
				msgs += st.Messages
			}
			b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
		})
	}
}
