package pregel

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// encodeCkptFile is the whole-frame container encoder saves used before
// ckptParts, kept verbatim (bar appendCkptHeader's dropped version
// argument) as the reference the parts must reproduce byte for byte, and
// as the frame the decoder tests feed.
func encodeCkptFile(f *ckptFile) []byte {
	size := 72 + len(f.PartitionerName)
	for _, b := range f.Workers {
		size += len(b) + binary.MaxVarintLen64 + crc32.Size
	}
	buf := make([]byte, 0, size)
	buf = appendCkptHeader(buf, f)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	for _, b := range f.Workers {
		buf = binary.AppendUvarint(buf, uint64(len(b)))
		buf = append(buf, b...)
		buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(b, castagnoli))
	}
	return buf
}

func sectionCRCs(f *ckptFile) []uint32 {
	crcs := make([]uint32, len(f.Workers))
	for i, sec := range f.Workers {
		crcs[i] = crc32.Checksum(sec, castagnoli)
	}
	return crcs
}

// checkPartsMatchFrame: ckptParts lays f out as 2W+1 parts, hands every
// section over without copying it, and concatenates to the reference frame.
func checkPartsMatchFrame(t testing.TB, label string, f *ckptFile) {
	t.Helper()
	parts := ckptParts(f, sectionCRCs(f))
	if len(parts) != 2*len(f.Workers)+1 {
		t.Fatalf("%s: %d parts for %d workers, want %d", label, len(parts), len(f.Workers), 2*len(f.Workers)+1)
	}
	for i, sec := range f.Workers {
		if len(sec) > 0 && &parts[2*i+1][0] != &sec[0] {
			t.Fatalf("%s: worker section %d was copied into its part", label, i)
		}
	}
	if got, want := bytes.Join(parts, nil), encodeCkptFile(f); !bytes.Equal(got, want) {
		t.Fatalf("%s: parts concatenate to %d bytes that differ from the %d-byte reference frame", label, len(got), len(want))
	}
}

// hubCompute is a skewed workload: vertices form clusters of k, members
// send every message to their cluster head and the head broadcasts back.
func hubCompute(n, k uint64, iters int) Compute[int64, int64] {
	return func(ctx *Context[int64], id VertexID, v *int64, msgs []int64) {
		for _, m := range msgs {
			*v += m
		}
		if ctx.Superstep() >= iters {
			ctx.VoteToHalt()
			return
		}
		head := VertexID(uint64(id) / k * k)
		if id == head {
			for j := uint64(1); j < k; j++ {
				ctx.Send(head+VertexID(j), *v%1000+1)
			}
		} else {
			ctx.Send(head, *v%1000+1)
		}
	}
}

func buildHubGraph(cfg Config, n int) *Graph[int64, int64] {
	g := NewGraph[int64, int64](cfg)
	for i := 0; i < n; i++ {
		g.AddVertex(VertexID(i), int64(i)+1)
	}
	return g
}

// partsRecorder is a MemCheckpointer that also keeps every artifact's parts
// as the engine handed them over.
type partsRecorder struct {
	*MemCheckpointer
	mu    sync.Mutex
	saves [][][]byte
}

func (r *partsRecorder) record(parts [][]byte) {
	r.mu.Lock()
	r.saves = append(r.saves, parts)
	r.mu.Unlock()
}

func (r *partsRecorder) Save(job string, step int, parts ...[]byte) error {
	r.record(parts)
	return r.MemCheckpointer.Save(job, step, parts...)
}

func (r *partsRecorder) SaveDelta(job string, step int, parts ...[]byte) error {
	r.record(parts)
	return r.MemCheckpointer.SaveDelta(job, step, parts...)
}

// TestCkptPartsMatchFrame is the differential test of the parts layout
// against the whole-frame encoder it replaced: hand-built containers
// around real full, delta and empty worker sections, and every save the
// engine makes across workers {1,4,7} — full and delta sections, empty
// workers and aggregator snapshot — must concatenate to exactly the
// reference frame of what they hold.
func TestCkptPartsMatchFrame(t *testing.T) {
	w := buildCodecWorker()
	full := encodeWorkerFull(w)
	empty := encodeWorkerFull(&worker[int64, int64]{verts: &verts[int64]{}, inOff: []int32{0}})
	w.dirty = []bool{true, false, false, true, false}
	sections := [][]byte{full, encodeWorkerDelta(w), empty}
	for _, workers := range []int{1, 4, 7} {
		for _, kind := range []byte{ckptKindFull, ckptKindDelta} {
			f := makeCodecCkptFile()
			f.Kind, f.NumWorkers = kind, workers
			f.Workers = make([][]byte, workers)
			for i := range f.Workers {
				f.Workers[i] = sections[i%len(sections)]
			}
			checkPartsMatchFrame(t, fmt.Sprintf("built w%d kind%d", workers, kind), f)
		}
	}

	// Engine saves. Each recorded artifact decodes, and the reference frame
	// of the decoded container is the concatenation of its parts, section
	// for section — so the CRCs the worker tasks computed are the ones the
	// coordinator used to compute.
	var seen struct{ saves, deltas, aggs, empties int }
	check := func(label string, r *partsRecorder) {
		t.Helper()
		for si, parts := range r.saves {
			blob := bytes.Join(parts, nil)
			f, err := decodeCkptFile("x", blob)
			if err != nil {
				t.Fatalf("%s save %d: %v", label, si, err)
			}
			if len(parts) != 2*len(f.Workers)+1 {
				t.Fatalf("%s save %d: %d parts for %d workers", label, si, len(parts), len(f.Workers))
			}
			for i, sec := range f.Workers {
				if !bytes.Equal(parts[2*i+1], sec) {
					t.Fatalf("%s save %d: part %d is not worker section %d", label, si, 2*i+1, i)
				}
				if f.Kind == ckptKindFull && len(sec) == 2 {
					seen.empties++
				}
			}
			if !bytes.Equal(encodeCkptFile(f), blob) {
				t.Fatalf("%s save %d: parts differ from the reference frame", label, si)
			}
			seen.saves++
			if f.Kind == ckptKindDelta {
				seen.deltas++
			}
			if len(f.Agg.Sum) > 0 {
				seen.aggs++
			}
		}
	}
	withAgg := func(c Compute[int64, int64]) Compute[int64, int64] {
		return func(ctx *Context[int64], id VertexID, v *int64, msgs []int64) {
			ctx.AggSum("sum", *v)
			c(ctx, id, v, msgs)
		}
	}
	for _, workers := range []int{1, 4, 7} {
		r := &partsRecorder{MemCheckpointer: NewMemCheckpointer()}
		g := buildHubGraph(Config{Workers: workers, Parallel: true, CheckpointEvery: 2, Checkpointer: r}, 120)
		if _, err := g.Run(withAgg(hubCompute(120, 8, 9)), WithName("parts")); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("hub w%d", workers), r)
		// A token hopping down a chain dirties one vertex per superstep,
		// so most saves are deltas.
		r = &partsRecorder{MemCheckpointer: NewMemCheckpointer()}
		c := buildChainGraph(Config{Workers: workers, Parallel: true, CheckpointEvery: 2, Checkpointer: r, DeltaCheckpoints: true}, 40)
		if _, err := c.Run(withAgg(chainCompute(40)), WithName("partsdelta")); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("chain w%d", workers), r)
		r = &partsRecorder{MemCheckpointer: NewMemCheckpointer()}
		p := buildPRGraph(Config{Workers: workers, CheckpointEvery: 3, Checkpointer: r}, 96)
		if _, err := p.Run(pageRankish(96, 7), WithName("partspagerank")); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("pagerank w%d", workers), r)
	}
	// Three vertices on seven workers leave empty partitions.
	r := &partsRecorder{MemCheckpointer: NewMemCheckpointer()}
	g := buildHubGraph(Config{Workers: 7, CheckpointEvery: 1, Checkpointer: r}, 3)
	if _, err := g.Run(hubCompute(3, 3, 4), WithName("partsempty")); err != nil {
		t.Fatal(err)
	}
	check("empty workers", r)
	if seen.deltas == 0 || seen.aggs == 0 || seen.empties == 0 {
		t.Fatalf("coverage lost: %d saves, %d deltas, %d with aggregators, %d empty sections",
			seen.saves, seen.deltas, seen.aggs, seen.empties)
	}
}

// fuzzCkptFile derives a container from fuzz bytes: header fields, an
// aggregator snapshot and up to 8 worker sections of
// arbitrary bytes (empty ones included).
func fuzzCkptFile(data []byte) *ckptFile {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	take := func(n int) []byte {
		n = min(n, len(data))
		b := data[:n:n]
		data = data[n:]
		return b
	}
	f := &ckptFile{
		Kind: next() % 2, Step: int(next()), PrevStep: int(next()), Pending: int64(int8(next())),
		PartitionerName: string(take(int(next() % 8))), Supersteps: int(next()),
		Messages: int64(next()) << 20, ClockNs: float64(next()) * 1e6,
		Fingerprint: uint64(next())<<56 | uint64(next()),
	}
	if k := int(next() % 4); k > 0 {
		f.Agg.Sum, f.Agg.Min, f.Agg.Or = map[string]int64{}, map[string]int64{}, map[string]bool{}
		for i := 0; i < k; i++ {
			f.Agg.Sum[string(take(3))] = int64(int8(next()))
			f.Agg.Min[string(take(2))] = -int64(next())
			f.Agg.Or[string(take(1))] = next()%2 == 1
		}
	}
	f.Workers = make([][]byte, next()%9)
	f.NumWorkers = len(f.Workers)
	for i := range f.Workers {
		f.Workers[i] = take(int(next()))
	}
	return f
}

// FuzzCkptPartsMatchFrame: for any container, the parts concatenate to the
// reference frame, and that frame decodes.
func FuzzCkptPartsMatchFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 6, 4, 17, 4, 'h', 'a', 's', 'h', 3, 'm', 'e', 'm', 8, 1, 2, 3, 4, 5, 6, 7, 8, 2, 9, 3, 5, 7, 9, 2, 'a', 'b', 'c', 4, 'l', 'o', 'o', 1, 4, 3, 0xff, 0x00, 0x10, 2, 'x', 'y'})
	f.Add(bytes.Repeat([]byte{0x9d, 0x03, 0x41}, 120))
	f.Fuzz(func(t *testing.T, data []byte) {
		file := fuzzCkptFile(data)
		checkPartsMatchFrame(t, "fuzz", file)
		if _, err := decodeCkptFile("fuzz@000", encodeCkptFile(file)); err != nil {
			t.Fatalf("reference frame does not decode: %v", err)
		}
	})
}

// ckptSaveGraph is a 4-worker graph of 4×perWorker int64 vertices, each
// partition benchWorker's synthetic state with its ragged pending inbox.
func ckptSaveGraph(perWorker int) *Graph[int64, int64] {
	g := NewGraph[int64, int64](Config{Workers: 4, CheckpointEvery: 1})
	for _, w := range g.workers {
		b := benchWorker(perWorker, 2)
		w.ids, w.vals, w.active, w.dead, w.nDead = b.ids, b.vals, b.active, b.dead, b.nDead
		w.inArena, w.inOff = b.inArena, b.inOff
	}
	return g
}

// TestCheckpointSaveAllocFence: a full save encodes each byte once into a
// buffer sized for it and copies it zero times, so it allocates at most
// 1.3x the bytes it writes plus O(workers) objects (the whole-frame save
// before it allocated 5.1x).
func TestCheckpointSaveAllocFence(t *testing.T) {
	g := ckptSaveGraph(25_000)
	ck, err := g.newCkptRun("fence")
	if err != nil {
		t.Fatal(err)
	}
	stats := &Stats{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := g.saveCheckpoint(ck, 0, 0, stats); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc, objs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	written := stats.CheckpointBytesWritten
	if float64(alloc) > 1.3*float64(written) {
		t.Errorf("save allocated %d bytes to write %d (%.2fx); want at most 1.3x", alloc, written, float64(alloc)/float64(written))
	}
	if limit := uint64(8*g.cfg.Workers + 32); objs > limit {
		t.Errorf("save made %d allocations; want O(workers), at most %d", objs, limit)
	}
}

// TestSectionBufHeavyTail: one huge value among many small ones, sampled
// or not, neither inflates a section's buffer by the sample stride nor
// leaves the store holding more than a quarter of slack. With the plain
// sampled mean, the sampled case reserved over 100x the section.
func TestSectionBufHeavyTail(t *testing.T) {
	const n, huge = 10_000, 256 << 10
	for _, at := range []int{0, 1} { // index 0 is sampled, 1 is not
		w := &worker[string, int64]{
			verts: &verts[string]{
				ids:    make([]VertexID, n),
				vals:   make([]string, n),
				active: make([]bool, n),
				dead:   make([]bool, n),
			},
			dirty: make([]bool, n),
			inOff: make([]int32, n+1),
		}
		for i := range w.ids {
			w.ids[i], w.vals[i], w.dirty[i] = VertexID(3*i), "ab", i%2 == 0 || i == at
		}
		w.vals[at] = strings.Repeat("x", huge)

		full := encodeWorkerFull(w)
		if reserved := cap(sectionBuf(w, n, 0)); at == 0 && reserved > len(full)+len(full)/4 {
			t.Errorf("sampled huge value: reserved %d bytes for a %d-byte section", reserved, len(full))
		}
		delta := encodeWorkerDelta(w)
		for label, sec := range map[string][]byte{"full": full, "delta": delta} {
			if slack := cap(sec) - len(sec); slack > max(len(sec)/4, 4096) {
				t.Errorf("huge value at %d, %s section: %d bytes with %d slack", at, label, len(sec), slack)
			}
		}
	}
}

// TestMemCheckpointerTakesOwnership: Save and SaveDelta keep the caller's
// parts as they are, and every read path returns the joined artifact.
func TestMemCheckpointerTakesOwnership(t *testing.T) {
	m := NewMemCheckpointer()
	full := [][]byte{[]byte("head"), []byte("section"), []byte("tail")}
	delta := [][]byte{[]byte("d1"), []byte("d2")}
	if err := m.Save("job@000", 4, full...); err != nil {
		t.Fatal(err)
	}
	if err := m.SaveDelta("job@000", 6, delta...); err != nil {
		t.Fatal(err)
	}
	for label, pair := range map[string][2][][]byte{
		"full":  {full, m.data["job@000"].parts},
		"delta": {delta, m.deltas["job@000"][0].parts},
	} {
		given, kept := pair[0], pair[1]
		if len(kept) != len(given) {
			t.Fatalf("%s: store kept %d parts, was given %d", label, len(kept), len(given))
		}
		for i := range given {
			if &kept[i][0] != &given[i][0] {
				t.Errorf("%s: part %d was copied", label, i)
			}
		}
	}

	step, blob, ok, err := m.Latest("job@000")
	if err != nil || !ok || step != 4 || string(blob) != "headsectiontail" {
		t.Errorf("Latest = %d %q %v %v, want 4 \"headsectiontail\"", step, blob, ok, err)
	}
	steps, blobs, ok, err := m.Chain("job@000")
	if err != nil || !ok || fmt.Sprint(steps) != "[4 6]" || len(blobs) != 2 ||
		string(blobs[0]) != "headsectiontail" || string(blobs[1]) != "d1d2" {
		t.Errorf("Chain = %v %q %v %v", steps, blobs, ok, err)
	}
	chains, err := m.ckptChains("job@000")
	if err != nil || len(chains) != 1 || len(chains[0]) != 2 ||
		string(chains[0][0].data) != "headsectiontail" || string(chains[0][1].data) != "d1d2" || !chains[0][1].delta {
		t.Errorf("ckptChains = %+v %v", chains, err)
	}
}

// BenchmarkCheckpointSave is one whole full save — encode and checksum
// every section, lay the container out, hand it to a MemCheckpointer — of
// a 4-worker, 100k-vertex partition. A first, untimed save measures the
// bytes one save writes.
func BenchmarkCheckpointSave(b *testing.B) {
	g := ckptSaveGraph(25_000)
	ck, err := g.newCkptRun("bench")
	if err != nil {
		b.Fatal(err)
	}
	stats := &Stats{}
	if err := g.saveCheckpoint(ck, 0, 0, stats); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(stats.CheckpointBytesWritten)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.saveCheckpoint(ck, i+1, 0, stats); err != nil {
			b.Fatal(err)
		}
	}
}
