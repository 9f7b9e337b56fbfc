package pregel

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// convertReference is Convert as it was before it ran on the executor: one
// sequential pass over src in (worker, ID) order, every emit inserted in
// place. It is the definition of what Convert must produce — vertex
// positions, which value survives a duplicated ID, the tiered byte charge
// and the message counts — whatever the schedule.
func convertReference[V2, M2, V1, M1 any](
	src *Graph[V1, M1],
	cfg Config,
	fn func(id VertexID, val V1, emit func(VertexID, V2)),
) *Graph[V2, M2] {
	cfg = cfg.withDefaults()
	dst := NewGraph[V2, M2](cfg)
	dst.clock = src.clock
	convNs := make([]float64, src.cfg.Workers)
	outBytes := make([]float64, src.cfg.Workers)
	localBytes := make([]float64, src.cfg.Workers)
	var nLocal, nRemote int64
	cur := -1
	var start int64
	emit := func(nid VertexID, nval V2) {
		d := dst.WorkerOf(nid)
		dst.workers[d].add(nid, nval)
		if d == cur {
			localBytes[cur] += float64(cfg.MessageBytes)
			nLocal++
		} else {
			outBytes[cur] += float64(cfg.MessageBytes)
			nRemote++
		}
	}
	src.ForEach(func(id VertexID, val *V1) {
		if w := src.WorkerOf(id); w != cur {
			if cur >= 0 {
				convNs[cur] += float64(nowNs() - start)
			}
			cur = w
			start = nowNs()
		}
		fn(id, *val, emit)
	})
	if cur >= 0 {
		convNs[cur] += float64(nowNs() - start)
	}
	dst.clock.ChargeSuperstepTiered(convNs, outBytes, localBytes)
	dst.clock.CountMessages(nLocal, nRemote)
	return dst
}

// modPartitioner places by the ID's low bits: a placement unlike hash, so
// a test under it checks that output does not depend on where vertices
// live.
type modPartitioner struct{}

func (modPartitioner) Name() string                        { return "mod" }
func (modPartitioner) Assign(id VertexID, workers int) int { return int(uint64(id) % uint64(workers)) }

// convScenario is one differential case; everything else derives from seed.
type convScenario struct {
	seed             int64
	srcWorkers       int
	dstWorkers       int
	part             int // 0 hash, 1 contiguous blocks, 2 mod, 3 map overrides over hash
	parallel         bool
	fanout, keepOneN int // emits per kept vertex; keep one source vertex in keepOneN
	collide          bool
}

func (sc convScenario) String() string {
	return fmt.Sprintf("seed%d-src%d-dst%d-part%d-par%v-fan%d-keep1in%d-collide%v",
		sc.seed, sc.srcWorkers, sc.dstWorkers, sc.part, sc.parallel, sc.fanout, sc.keepOneN, sc.collide)
}

// runConvScenario converts one random source graph twice — reference and
// Convert — and compares the destination partitions position by position,
// plus what each charged its (separate, compute-free) clock.
func runConvScenario(t *testing.T, sc convScenario) {
	t.Helper()
	rng := rand.New(rand.NewSource(sc.seed))
	cost := DefaultCost()
	cost.ComputeScale = 1e-18 // measured nanoseconds out, so the clocks compare exactly on bytes

	n := rng.Intn(400)
	ids := make([]VertexID, n)
	for i := range ids {
		ids[i] = VertexID(rng.Intn(3 * (n + 1)))
		if rng.Intn(8) == 0 {
			ids[i] = VertexID(rng.Uint64())
		}
	}
	var removed []VertexID
	for _, id := range ids {
		if rng.Intn(10) == 0 {
			removed = append(removed, id)
		}
	}
	build := func() *Graph[int64, int64] {
		g := NewGraph[int64, int64](Config{Workers: sc.srcWorkers, Cost: cost})
		for i, id := range ids {
			g.AddVertex(id, int64(i))
		}
		for _, id := range removed {
			g.RemoveVertex(id)
		}
		return g
	}
	var part Partitioner
	switch sc.part {
	case 1:
		blocks := mapPartitioner{}
		for i, id := range ids {
			blocks[id*2] = i * sc.dstWorkers / len(ids)
		}
		part = blocks
	case 2:
		part = modPartitioner{}
	case 3:
		moves := mapPartitioner{}
		for _, id := range ids {
			if rng.Intn(3) == 0 {
				moves[id*2] = rng.Intn(sc.dstWorkers)
			}
		}
		part = moves
	}
	cfg := Config{Workers: sc.dstWorkers, Partitioner: part, Parallel: sc.parallel, MessageBytes: 24, Cost: cost}
	fn := func(id VertexID, val int64, emit func(VertexID, string)) {
		if hashID(id)%uint64(sc.keepOneN) != 0 {
			return
		}
		for j := 0; j < sc.fanout; j++ {
			nid := id*2 + VertexID(j)*1001
			if sc.collide {
				nid = (id/3)*2 + VertexID(j) // neighbours emit the same IDs: last write must win
			}
			emit(nid, fmt.Sprintf("%d/%d/%d", id, val, j))
		}
	}

	refSrc, gotSrc := build(), build()
	want := convertReference[string, int64](refSrc, cfg, fn)
	got := Convert[string, int64](gotSrc, cfg, fn)

	for d := range want.workers {
		w, g := want.workers[d], got.workers[d]
		if !reflect.DeepEqual(g.ids, w.ids) && (len(g.ids)+len(w.ids) > 0) {
			t.Fatalf("worker %d: ids differ\n got %v\nwant %v", d, g.ids, w.ids)
		}
		if !reflect.DeepEqual(g.vals, w.vals) && (len(g.vals)+len(w.vals) > 0) {
			t.Fatalf("worker %d: vals differ\n got %v\nwant %v", d, g.vals, w.vals)
		}
		if !reflect.DeepEqual(g.active, w.active) || !reflect.DeepEqual(g.dead, w.dead) || g.nDead != w.nDead {
			t.Fatalf("worker %d: flags differ: active %v/%v dead %v/%v nDead %d/%d",
				d, g.active, w.active, g.dead, w.dead, g.nDead, w.nDead)
		}
		for i, id := range g.ids {
			if p, ok := g.idx.lookup(g.ids, id); !ok || p != i {
				t.Fatalf("worker %d: index resolves %d to %d,%v, want %d", d, id, p, ok, i)
			}
		}
	}
	wc, gc := want.clock, got.clock
	if gc.LocalMessages() != wc.LocalMessages() || gc.RemoteMessages() != wc.RemoteMessages() {
		t.Errorf("message counts: got %d local / %d remote, want %d / %d",
			gc.LocalMessages(), gc.RemoteMessages(), wc.LocalMessages(), wc.RemoteMessages())
	}
	if math.Abs(gc.Ns()-wc.Ns()) > 1e-6 {
		t.Errorf("byte charge: clock advanced %.6f ns, want %.6f", gc.Ns(), wc.Ns())
	}
	if got.clock != gotSrc.clock {
		t.Error("converted graph does not share the source clock")
	}
}

// TestConvertMatchesSequentialReference is the seeded table form: one-to-one,
// fan-out and filtering conversions, duplicate emitted IDs, a changed worker
// count and every placement family, sequentially and on the executor.
func TestConvertMatchesSequentialReference(t *testing.T) {
	seed := int64(0)
	for _, workers := range [][2]int{{1, 1}, {4, 4}, {4, 7}, {7, 3}} {
		for part := 0; part < 4; part++ {
			for _, parallel := range []bool{false, true} {
				for _, shape := range []struct {
					fanout, keepOneN int
					collide          bool
				}{{1, 1, false}, {3, 1, false}, {1, 5, false}, {2, 2, true}, {0, 1, false}} {
					seed++
					sc := convScenario{seed: seed, srcWorkers: workers[0], dstWorkers: workers[1], part: part,
						parallel: parallel, fanout: shape.fanout, keepOneN: shape.keepOneN, collide: shape.collide}
					t.Run(sc.String(), func(t *testing.T) { runConvScenario(t, sc) })
				}
			}
		}
	}
}

// FuzzConvertMatchesSequentialReference lets the fuzzer pick the seed and
// the configuration.
func FuzzConvertMatchesSequentialReference(f *testing.F) {
	f.Add(int64(1), uint16(0))
	f.Add(int64(2), uint16(0xffff))
	f.Add(int64(99), uint16(0x5a3c))
	f.Fuzz(func(t *testing.T, seed int64, bits uint16) {
		runConvScenario(t, convScenario{
			seed:       seed,
			srcWorkers: int(bits&7) + 1,
			dstWorkers: int(bits>>3&7) + 1,
			part:       int(bits >> 6 & 3),
			parallel:   bits>>8&1 == 1,
			fanout:     int(bits >> 9 & 3),
			keepOneN:   int(bits>>11&7) + 1,
			collide:    bits>>14&1 == 1,
		})
	})
}
