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
// ckptParts, kept verbatim (bar appendContainerHeader's dropped version
// argument) as the reference the parts must reproduce byte for byte, and
// as the frame the decoder tests feed.
func encodeCkptFile(f *ckptFile) []byte {
	size := 72 + len(f.PartitionerName)
	for _, b := range f.Workers {
		size += len(b) + binary.MaxVarintLen64 + crc32.Size
	}
	buf := make([]byte, 0, size)
	buf = appendContainerHeader(buf, f)
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

// TestCkptPartsMatchFrame is the differential test of the parts layout
// against the whole-frame encoder it replaced: hand-built containers
// around real and empty worker sections, and every save the engine makes
// across workers {1,4,7} — empty workers and aggregator values included
// — must concatenate to exactly the reference frame of what they hold.
func TestCkptPartsMatchFrame(t *testing.T) {
	full := encodeWorkerSection(buildCodecWorker())
	empty := encodeWorkerSection(&worker[int64, int64]{verts: &verts[int64]{}, inOff: []int32{0}})
	sections := [][]byte{full, empty}
	for _, workers := range []int{1, 4, 7} {
		f := makeCodecCkptFile()
		f.NumWorkers = workers
		f.Workers = make([][]byte, workers)
		for i := range f.Workers {
			f.Workers[i] = sections[i%len(sections)]
		}
		checkPartsMatchFrame(t, fmt.Sprintf("built w%d", workers), f)
	}

	// Engine saves. Each recorded artifact decodes, and the reference frame
	// of the decoded container is the concatenation of its parts, section
	// for section — so the CRCs the worker tasks computed are the ones the
	// coordinator used to compute.
	var seen struct{ saves, aggs, empties int }
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
				if len(sec) == 2 {
					seen.empties++
				}
			}
			if !bytes.Equal(encodeCkptFile(f), blob) {
				t.Fatalf("%s save %d: parts differ from the reference frame", label, si)
			}
			seen.saves++
			if f.Agg.Sum != 0 {
				seen.aggs++
			}
		}
	}
	withAgg := func(c Compute[int64, int64]) Compute[int64, int64] {
		return func(ctx *Context[int64], id VertexID, v *int64, msgs []int64) {
			ctx.AggSum(*v)
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
	if seen.aggs == 0 || seen.empties == 0 {
		t.Fatalf("coverage lost: %d saves, %d with aggregators, %d empty sections",
			seen.saves, seen.aggs, seen.empties)
	}
}

// fuzzCkptFile derives a container from fuzz bytes: header fields, the
// two aggregator values and up to 8 worker sections of
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
		Step: int(next()), Pending: int64(int8(next())),
		PartitionerName: string(take(int(next() % 8))), Supersteps: int(next()),
		Messages: int64(next()) << 20, ClockNs: float64(next()) * 1e6,
		Fingerprint: uint64(next())<<56 | uint64(next()),
	}
	f.Agg = aggVals{Sum: int64(int8(next())), Or: next()%2 == 1}
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
			inOff: make([]int32, n+1),
		}
		for i := range w.ids {
			w.ids[i], w.vals[i] = VertexID(3*i), "ab"
		}
		w.vals[at] = strings.Repeat("x", huge)

		sec := encodeWorkerSection(w)
		if reserved := cap(sectionBuf(w)); at == 0 && reserved > len(sec)+len(sec)/4 {
			t.Errorf("sampled huge value: reserved %d bytes for a %d-byte section", reserved, len(sec))
		}
		if slack := cap(sec) - len(sec); slack > max(len(sec)/4, 4096) {
			t.Errorf("huge value at %d: %d-byte section with %d slack", at, len(sec), slack)
		}
	}
}

// TestMemCheckpointerTakesOwnership: Save keeps the caller's parts as they
// are, and every read path returns the joined artifact.
func TestMemCheckpointerTakesOwnership(t *testing.T) {
	m := NewMemCheckpointer()
	given := [][]byte{[]byte("head"), []byte("section"), []byte("tail")}
	if err := m.Save("job@000", 4, given...); err != nil {
		t.Fatal(err)
	}
	kept := m.data["job@000"].parts
	if len(kept) != len(given) {
		t.Fatalf("store kept %d parts, was given %d", len(kept), len(given))
	}
	for i := range given {
		if &kept[i][0] != &given[i][0] {
			t.Errorf("part %d was copied", i)
		}
	}

	gens, err := m.ckptGenerations("job@000")
	if err != nil || len(gens) != 1 || string(gens[0].data) != "headsectiontail" {
		t.Errorf("ckptGenerations = %+v %v", gens, err)
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

// heldAtSave is a MemCheckpointer that counts, at every Save, the
// snapshots the store still holds.
type heldAtSave struct {
	*MemCheckpointer
	saves, held int
}

func (h *heldAtSave) Save(job string, step int, parts ...[]byte) error {
	h.mu.Lock()
	h.saves++
	h.held += len(h.data)
	h.mu.Unlock()
	return h.MemCheckpointer.Save(job, step, parts...)
}

// TestMemCheckpointerReleasesSnapshots: the in-memory store holds no
// snapshot while the next one is encoded and saved, none once the job has
// finished, and a crash still rolls back to the last one.
func TestMemCheckpointerReleasesSnapshots(t *testing.T) {
	ref := buildHubGraph(Config{Workers: 3}, 60)
	if _, err := ref.Run(hubCompute(60, 5, 9), WithName("ref")); err != nil {
		t.Fatal(err)
	}
	h := &heldAtSave{MemCheckpointer: NewMemCheckpointer()}
	g := buildHubGraph(Config{Workers: 3, CheckpointEvery: 2, Checkpointer: h,
		Faults: NewFaultPlan(Fault{Round: 5, Worker: 1})}, 60)
	st, err := g.Run(hubCompute(60, 5, 9), WithName("released"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Recoveries != 1 || h.saves < 3 {
		t.Fatalf("%d recoveries and %d saves, want 1 and at least 3", st.Recoveries, h.saves)
	}
	if h.held != 0 {
		t.Errorf("the store held %d snapshots across %d saves, want 0", h.held, h.saves)
	}
	if n := len(h.data); n != 0 {
		t.Errorf("the store holds %d snapshots after the job finished, want 0", n)
	}
	ref.ForEach(func(id VertexID, v *int64) {
		if got, _ := g.Value(id); got != *v {
			t.Fatalf("vertex %d = %d after recovery, want %d", id, got, *v)
		}
	})
}
