package pregel

import (
	"fmt"
	"time"
)

// CheckpointCodecStats reports the size and measured throughput of the
// binary worker-section codec against the gob fallback section on a
// synthetic worker partition, plus the size ratio of a delta checkpoint at
// a given dirty fraction. Byte counts are deterministic for fixed inputs
// and are what cmd/benchfence gates; the MB/s figures and speedups are
// host-dependent and only reported.
type CheckpointCodecStats struct {
	Vertices int `json:"vertices"`
	Messages int `json:"messages"`

	FullBytes  int `json:"full_bytes"`
	GobBytes   int `json:"gob_bytes"`
	DeltaBytes int `json:"delta_bytes"`
	// DirtyFraction is the fraction of vertices marked dirty for the delta
	// measurement; DeltaRatio = DeltaBytes / FullBytes at that fraction.
	DirtyFraction float64 `json:"dirty_fraction"`
	DeltaRatio    float64 `json:"delta_ratio"`

	BinEncodeMBps float64 `json:"bin_encode_mbps"`
	BinDecodeMBps float64 `json:"bin_decode_mbps"`
	GobEncodeMBps float64 `json:"gob_encode_mbps"`
	GobDecodeMBps float64 `json:"gob_decode_mbps"`
	// EncodeSpeedup and DecodeSpeedup are binary-over-gob throughput
	// ratios normalized by the respective encoded sizes (ratio of per-
	// snapshot encode/decode times), so they compare codec work per
	// checkpoint, not per byte.
	EncodeSpeedup float64 `json:"encode_speedup"`
	DecodeSpeedup float64 `json:"decode_speedup"`
}

// benchWorker builds the synthetic int64-valued partition used by
// MeasureCheckpointCodec and the engine-level codec benchmarks: full-range
// IDs, mixed active/halted flags, a sprinkle of dead vertices and a ragged
// pending inbox.
func benchWorker(vertices, msgsPerVertex int) *worker[int64, int64] {
	w := &worker[int64, int64]{
		ids:    make([]VertexID, vertices),
		vals:   make([]int64, vertices),
		active: make([]bool, vertices),
		dead:   make([]bool, vertices),
		inOff:  make([]int32, vertices+1),
		inCur:  make([]int32, vertices),
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

// timeOp runs fn until ~25ms of wall time has accumulated and returns the
// mean ns per call.
func timeOp(fn func()) float64 {
	fn() // warm-up (and gob type registration)
	total, calls := time.Duration(0), 0
	for total < 25*time.Millisecond {
		start := time.Now()
		fn()
		total += time.Since(start)
		calls++
	}
	return float64(total.Nanoseconds()) / float64(calls)
}

// MeasureCheckpointCodec times full-snapshot encode and decode through both
// worker-section codecs (binary and the gob fallback) and sizes a delta
// checkpoint at the given dirty fraction. It exists for the benchmark
// artifact emitter; correctness of the codecs is pinned by the engine's
// test suite, not here.
func MeasureCheckpointCodec(vertices, msgsPerVertex int, dirtyFrac float64) (CheckpointCodecStats, error) {
	w := benchWorker(vertices, msgsPerVertex)

	binBlob, err := encodeWorkerFull(w, true)
	if err != nil {
		return CheckpointCodecStats{}, err
	}
	gobBlob, err := encodeWorkerFull(w, false)
	if err != nil {
		return CheckpointCodecStats{}, err
	}

	w.dirty = make([]bool, vertices)
	dirtyEvery := vertices
	if dirtyFrac > 0 {
		dirtyEvery = int(1 / dirtyFrac)
		if dirtyEvery < 1 {
			dirtyEvery = 1
		}
	}
	for i := 0; i < vertices; i += dirtyEvery {
		w.dirty[i] = true
	}
	deltaBlob := encodeWorkerDelta(w)

	st := CheckpointCodecStats{
		Vertices: vertices, Messages: len(w.inArena),
		FullBytes: len(binBlob), GobBytes: len(gobBlob), DeltaBytes: len(deltaBlob),
		DirtyFraction: dirtyFrac,
		DeltaRatio:    float64(len(deltaBlob)) / float64(len(binBlob)),
	}

	binEnc := timeOp(func() {
		if _, err := encodeWorkerFull(w, true); err != nil {
			panic(err)
		}
	})
	gobEnc := timeOp(func() {
		if _, err := encodeWorkerFull(w, false); err != nil {
			panic(err)
		}
	})
	binDec := timeOp(func() {
		if _, err := decodeWorkerSection[int64, int64](binBlob); err != nil {
			panic(err)
		}
	})
	gobDec := timeOp(func() {
		if _, err := decodeWorkerSection[int64, int64](gobBlob); err != nil {
			panic(err)
		}
	})
	if binEnc <= 0 || gobEnc <= 0 || binDec <= 0 || gobDec <= 0 {
		return st, fmt.Errorf("pregel: codec measurement produced a non-positive timing")
	}
	mbps := func(bytes int, nsPerOp float64) float64 {
		return float64(bytes) / nsPerOp * 1e9 / (1 << 20)
	}
	st.BinEncodeMBps = mbps(len(binBlob), binEnc)
	st.BinDecodeMBps = mbps(len(binBlob), binDec)
	st.GobEncodeMBps = mbps(len(gobBlob), gobEnc)
	st.GobDecodeMBps = mbps(len(gobBlob), gobDec)
	st.EncodeSpeedup = gobEnc / binEnc
	st.DecodeSpeedup = gobDec / binDec
	return st, nil
}
