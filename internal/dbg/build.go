package dbg

import (
	"ppaassembler/internal/dna"
	"ppaassembler/internal/pregel"
)

// K1Mer is a counted (k+1)-mer: the output record of DBG-construction
// phase (i). ID is the canonical (k+1)-mer's integer encoding.
type K1Mer struct {
	ID  dna.Kmer
	Cov uint32
}

// KmerRec is one reduced k-mer vertex of phase (ii): a canonical k-mer's
// ID and its complete adjacency.
type KmerRec struct {
	ID pregel.VertexID
	V  KmerVertex
}

// BuildResult carries the constructed compact de Bruijn graph plus the
// statistics the experiments report.
type BuildResult struct {
	// Vertices holds one KmerRec per canonical k-mer, as phase (ii)'s
	// reducers emit them: shard w is reducer w's output, every record owned
	// by worker w under the build's Config and in ascending ID order, which
	// is what pregel.LoadShards installs without a re-shard or a sort.
	Vertices [][]KmerRec
	// Stats aggregates both mini-MapReduce phases.
	Stats pregel.Stats
	// K1Distinct is the number of distinct (k+1)-mers seen; K1Kept those
	// surviving the coverage threshold θ.
	K1Distinct, K1Kept int64
}

// BuildDBG is operation ① (§IV-B): it turns reads into a de Bruijn graph of
// canonical k-mer vertices with compressed adjacency bitmaps, in two mini-
// MapReduce phases. Phase (i) extracts (k+1)-mers (splitting reads at 'N',
// pre-aggregating counts per worker exactly as the paper describes) and
// drops those with coverage <= theta. Phase (ii) emits, for every surviving
// (k+1)-mer, an adjacency item to each of its two endpoint k-mer vertices
// and reduces items into complete KmerVertex values.
//
// readShards holds each worker's reads (as ASCII strings, possibly
// containing 'N'). The clock is charged for both shuffles.
func BuildDBG(clock *pregel.SimClock, cfg pregel.Config, readShards [][]string, k int, theta uint32) (*BuildResult, error) {
	if err := dna.ValidK(k); err != nil {
		return nil, err
	}
	res := &BuildResult{}

	// Keys are (k+1)-mer and k-mer IDs, so both phases group through the
	// same partitioner that will place the graph's vertices (keyHash is the
	// identity projection; see MRConfig.Routed): each reduced KmerVertex of
	// phase (ii) is born, ID-sorted, on the worker that owns it, and the
	// graph is loaded from the reducers' shards in memory (pregel.LoadShards)
	// with no second shuffle and no sort.
	k1Shards := countK1Mers(clock, cfg, readShards, k, theta, res)

	// Phase (ii): one adjacency item per (k+1)-mer endpoint.
	type partial struct {
		item AdjKmer
	}
	vertShards, st2 := pregel.MapReduce(
		clock, cfg,
		pregel.MRConfig{Name: cfg.JobPrefix + "adj", PairBytes: 10, Routed: true}, // 8-byte key + 1-byte item + varint cov
		k1Shards,
		func(w int, e K1Mer, emit func(uint64, partial)) {
			srcID, srcItem, dstID, dstItem := EdgeEndpoints(e, k)
			emit(uint64(srcID), partial{srcItem})
			emit(uint64(dstID), partial{dstItem})
		},
		func(id uint64) uint64 { return id },
		func(a, b uint64) bool { return a < b },
		func(w int, key uint64, parts []partial, emit func(KmerRec)) {
			var v KmerVertex
			for _, p := range parts {
				v.AddEdge(p.item)
			}
			emit(KmerRec{pregel.VertexID(key), v})
		},
	)
	res.Stats.Add(st2)
	res.Vertices = vertShards
	return res, nil
}

// countK1Mers is phase (i) of BuildDBG: it counts the canonical (k+1)-mers
// of every read, drops those with coverage <= theta, and returns the
// survivors per reducer in ascending ID order, recording the distinct and
// kept totals and the job's statistics in res.
//
// Each worker's whole shard is one map item so the map UDF can pre-aggregate
// counts locally before shuffling (the paper's "(ID, count) pair ...
// otherwise the count is increased by 1"). It does so by sort-and-scan: one
// slot per window (exact for N-free reads, never grown otherwise), one radix
// sort of the bare IDs (in place, with no window-sized scratch; see
// pregel.RadixSort), one (ID, run length) pair per distinct ID in ascending
// order.
//
// A (k+1)-mer is routed to the worker owning its canonical prefix k-mer (a
// routing projection, not a mixing hash — see MRConfig.Routed). Phase
// (ii) then runs its map on that worker, so the prefix-endpoint adjacency
// pair it emits is intra-machine by construction; only the suffix
// endpoint's pair can cross the wire.
func countK1Mers(clock *pregel.SimClock, cfg pregel.Config, readShards [][]string, k int, theta uint32, res *BuildResult) [][]K1Mer {
	workers := max(cfg.Workers, 1)
	shardItems := make([][][]string, workers)
	for w := 0; w < workers && w < len(readShards); w++ {
		shardItems[w] = [][]string{readShards[w]}
	}
	// Reduce UDFs run concurrently (one reducer per worker) under Parallel,
	// so the θ-filter counters accumulate per reducer and fold afterwards.
	k1Distinct := make([]int64, workers)
	k1Kept := make([]int64, workers)
	k1Shards, st := pregel.MapReduce(
		clock, cfg,
		pregel.MRConfig{Name: cfg.JobPrefix + "k1", PairBytes: 12, Routed: true}, // ~8-byte key + varint count on the wire
		shardItems,
		func(w int, reads []string, emit func(uint64, uint32)) {
			windows := 0
			for _, r := range reads {
				windows += max(0, len(r)-k)
			}
			ids := make([]uint64, 0, windows)
			for _, r := range reads {
				ids = appendCanonicalWindows(ids, r, k)
			}
			pregel.RadixSort(ids, nil)
			for i := 0; i < len(ids); {
				j := i + 1
				for j < len(ids) && ids[j] == ids[i] {
					j++
				}
				emit(ids[i], uint32(j-i))
				i = j
			}
		},
		func(id uint64) uint64 {
			pref, _ := dna.Kmer(id >> 2).Canonical(k)
			return uint64(pref)
		},
		func(a, b uint64) bool { return a < b },
		func(w int, key uint64, counts []uint32, emit func(K1Mer)) {
			total := uint32(0)
			for _, c := range counts {
				total += c
			}
			k1Distinct[w]++
			if total > theta {
				k1Kept[w]++
				emit(K1Mer{ID: dna.Kmer(key), Cov: total})
			}
		},
	)
	for w := 0; w < workers; w++ {
		res.K1Distinct += k1Distinct[w]
		res.K1Kept += k1Kept[w]
	}
	res.Stats.Add(st)
	return k1Shards
}

// EdgeEndpoints decomposes a counted (k+1)-mer into its two endpoint
// vertices and their adjacency items: the prefix k-mer receives an out-item
// labelled with the (k+1)-mer's last base, the suffix k-mer an in-item
// labelled with its first base; polarities record which endpoint needed
// reverse-complementing to become canonical (§III, Figure 6).
func EdgeEndpoints(e K1Mer, k int) (srcID pregel.VertexID, srcItem AdjKmer, dstID pregel.VertexID, dstItem AdjKmer) {
	k1 := k + 1
	prefix := dna.Kmer(uint64(e.ID) >> 2)              // drop last base
	suffix := dna.Kmer(uint64(e.ID) & dna.KmerMask(k)) // drop first base
	first := e.ID.At(0, k1)                            // prepended base for the suffix vertex
	last := e.ID.Last()                                // appended base for the prefix vertex
	srcCanon, srcWas := prefix.Canonical(k)
	dstCanon, dstWas := suffix.Canonical(k)
	x, y := H, H
	if srcWas {
		x = L
	}
	if dstWas {
		y = L
	}
	srcID = KmerID(srcCanon)
	dstID = KmerID(dstCanon)
	srcItem = AdjKmer{Base: last, In: false, PSelf: x, PNbr: y, Cov: e.Cov}
	dstItem = AdjKmer{Base: first, In: true, PSelf: y, PNbr: x, Cov: e.Cov}
	return srcID, srcItem, dstID, dstItem
}

// appendCanonicalWindows appends to ids the canonical ID of every (k+1)-wide
// window over each maximal ACGT run of the read (runs shorter than k+1 yield
// nothing; 'N' and other letters break runs, per §IV-B ①). The window and
// its reverse complement both roll one base per letter — the new base enters
// the forward word at the bottom and its complement the reverse word at the
// top — so canonicalising a window is one min, not a reversal.
func appendCanonicalWindows(ids []uint64, read string, k int) []uint64 {
	k1 := k + 1
	mask := dna.KmerMask(k1)
	top := 2 * uint(k)
	var fw, rc uint64
	run := 0
	for i := 0; i < len(read); i++ {
		b, ok := dna.BaseFromByte(read[i])
		if !ok {
			run = 0
			continue
		}
		fw = (fw<<2 | uint64(b)) & mask
		rc = rc>>2 | uint64(3-b)<<top
		run++
		if run >= k1 {
			ids = append(ids, min(fw, rc))
		}
	}
	return ids
}
