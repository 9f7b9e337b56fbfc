package pregel

import (
	"fmt"
	"math"
	"slices"

	"ppaassembler/internal/telemetry"
)

// MRConfig configures one MapReduceCfg run.
type MRConfig struct {
	// Workers is the number of logical workers (map shards / reducers).
	Workers int
	// PairBytes is the charged wire size of one shuffled (key, value) pair.
	// Zero means DefaultMessageBytes.
	PairBytes int
	// Parallel runs the map tasks (one per source worker) and then the
	// shuffle+sort+reduce tasks (one per destination worker) on the engine's
	// executor, at most one goroutine per core (see Config.Parallel), so at
	// most that many mappers' scratch is live at once.
	// Each mapper writes only its own per-destination buckets and each
	// reducer drains only the bucket lanes addressed to it, mirroring the
	// Pregel engine's shuffle; the output is identical to sequential
	// execution. Map and reduce UDFs are then called concurrently from
	// different workers and must not write shared state without
	// per-worker partitioning.
	Parallel bool
	// Partitioner, when non-nil, routes keys to reducers through the same
	// placement strategy the Pregel engine uses for vertices: keyHash is
	// then treated as a key → routing-ID projection (usually the identity
	// on a vertex-ID key, NOT a mixing hash) and the reducer is
	// Partitioner.Assign(routingID). A reduce whose output feeds a graph
	// keyed by the same IDs thus lands on the destination vertex's home
	// worker. With a nil Partitioner keys group by keyHash(k) % Workers,
	// the historical behavior; for a routing ID the two paths agree
	// exactly when the partitioner is HashPartitioner, since Assign applies
	// the same SplitMix64 mix as Uint64Hash. Call sites whose reducer
	// identity is part of the output contract (the assembler's contig
	// merge, whose reducer index is baked into contig IDs) deliberately
	// leave this nil so the grouping stays placement-invariant.
	Partitioner Partitioner
	// Faults, when non-nil, injects worker crashes for fault-tolerance
	// testing. MapReduce recovers by lineage, not by checkpoint: the
	// failed worker's map or reduce task re-runs from its in-memory input
	// (map shard, or shuffled bucket lanes), the classic MapReduce failure
	// model. Each phase ticks the shared plan once, so a pipeline-wide
	// schedule can land a crash inside a shuffle round. Because map and
	// reduce UDFs are allowed to accumulate caller-owned per-worker state
	// (the assembler's θ-filter counters, merge ordinals and pair counts
	// all do), the redo is priced, not re-invoked: the failed task's
	// second execution is identical by construction for deterministic
	// UDFs, so recovery only charges the clock an extra round carried by
	// the failed worker alone.
	Faults *FaultPlan

	// Name labels this MapReduce in trace spans and pprof labels (e.g.
	// "build.k1", "scaffold.links"). Empty means "mapreduce".
	Name string
	// Tracer, when non-nil, receives map/shuffle/reduce phase spans; see
	// Config.Tracer for the emission contract.
	Tracer telemetry.Tracer
	// Metrics, when non-nil, receives the mr_* counters.
	Metrics *telemetry.Registry
}

// Validate rejects nonsensical MapReduce configurations with a clear
// error; like Config.Validate it is meant to be called early by CLIs and
// the workflow layer (zero values are still defaulted for library use).
func (c MRConfig) Validate() error {
	if c.Workers <= 0 {
		return fmt.Errorf("pregel: MapReduce Workers must be positive, got %d", c.Workers)
	}
	if c.PairBytes < 0 {
		return fmt.Errorf("pregel: MapReduce PairBytes must not be negative, got %d", c.PairBytes)
	}
	return nil
}

func (c MRConfig) withDefaults() MRConfig {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.PairBytes <= 0 {
		c.PairBytes = DefaultMessageBytes
	}
	return c
}

// MapReduceCfg is the paper's first Pregel+ API extension (§II): a mini
// MapReduce procedure used during graph loading and for the grouping steps
// of DBG construction (op ①), contig merging (op ③) and bubble filtering
// (op ④).
//
// The input is sharded per worker (input[w] is worker w's shard, mirroring
// HDFS block placement). Each worker maps its shard, emitted (key, value)
// pairs are shuffled to worker keyHash(key) % W (or through a configured
// Partitioner; see MRConfig), stably grouped by key with keyLess, and
// reduced; reduce output stays on the reducing worker (which is how contigs
// acquire their (worker, ordinal) IDs in op ③).
//
// Ordering guarantee: a reducer sees its keys in ascending keyLess order and
// each key's values in (source worker, emission) order — order-sensitive
// reducers (float sums, chain stitching) rely on it. Grouping sorts a
// permutation of 4-byte arrival indices and gathers the values once; whole
// records never move. How it sorts is selected by the key type and the
// input, never by an option: when K is exactly uint64 (the k-mer, vertex and
// label IDs of every hot job) and every lane a reducer receives is already
// ascending (DBG phase (i)'s mappers emit their sorted counts in order), the
// lanes are merged in O(n·W), ties leaving the lower source worker first;
// other uint64 keys go through RadixSort, O(n) per differing key byte; either
// way groups are the equal-key runs of the sorted key array. Any other K
// (struct keys, named integer types) takes an O(n log n) comparison sort of
// the permutation under keyLess. The uint64 paths order by integer value,
// so a uint64-keyed job must pass the ascending keyLess, a < b: it is called
// once per group boundary and a disagreement panics naming the job, rather
// than being silently ignored. MRConfig.Metrics counts the reducers that
// merged in mr_reducers_merged_total.
//
// Cost: the clock is charged one shuffle round — barrier latency + slowest
// mapper + most-loaded link — and one reduce round. cfg.PairBytes is the
// charged wire size of one shuffled pair.
//
// The vals slice passed to reduceFn aliases a per-reducer arena and is only
// valid for the duration of that reduce call; copy it to retain it.
//
// cfg.Parallel runs the per-worker map and reduce tasks on the engine's
// executor (see MRConfig.Parallel).
func MapReduceCfg[I, K, V, O any](
	clock *SimClock,
	cfg MRConfig,
	input [][]I,
	mapFn func(worker int, item I, emit func(K, V)),
	keyHash func(K) uint64,
	keyLess func(K, K) bool,
	reduceFn func(worker int, key K, vals []V, emit func(O)),
) ([][]O, *Stats) {
	cfg = cfg.withDefaults()
	workers := cfg.Workers
	name := cfg.Name
	if name == "" {
		name = "mapreduce"
	}
	stats := &Stats{Name: name, Workers: workers}
	tr := cfg.Tracer
	emitEv := func(kind telemetry.Kind, evName string, wallNs int64, simNs float64, args ...telemetry.Arg) {
		telemetry.SampleHeap() // a phase boundary, for the enclosing spans' peak live heap
		tr.Emit(telemetry.Event{Kind: kind, Name: evName, Cat: "mr", WallNs: wallNs, SimNs: simNs, Args: args})
	}
	var wallMap0 int64
	if tr != nil {
		wallMap0 = nowNs()
		emitEv(telemetry.KindBegin, "mr", wallMap0, clock.Ns(), telemetry.S("name", name))
	}

	// Key grouping: with a partitioner, keyHash projects the key to a
	// routing ID placed like a vertex; without one, it is a mixing hash
	// taken modulo the worker count (the historical behavior).
	route := func(k K) int { return int(keyHash(k) % uint64(workers)) }
	if part := cfg.Partitioner; part != nil {
		route = func(k K) int { return part.Assign(VertexID(keyHash(k)), workers) }
	}

	// Map phase: each worker maps its shard into per-destination lanes.
	buckets := make([][]mapLane[K, V], workers) // [src][dst]
	mapNs := make([]float64, workers)
	outBytes := make([]float64, workers)
	localBytes := make([]float64, workers)
	emitted := make([]int64, workers)
	emittedLocal := make([]int64, workers)
	mapWorker := func(w int) {
		lanes := make([]mapLane[K, V], workers)
		buckets[w] = lanes
		if w >= len(input) {
			return
		}
		// First block: one pair per item, spread evenly.
		for d := range lanes {
			lanes[d].grow(len(input[w])/workers + 1)
		}
		emit := func(k K, v V) { lanes[route(k)].push(k, v) }
		start := nowNs()
		for _, item := range input[w] {
			mapFn(w, item, emit)
		}
		mapNs[w] = float64(nowNs() - start)
		// The pair counts are the lane lengths, read once the mapper is done
		// rather than counted per emitted pair.
		for d := range lanes {
			emitted[w] += int64(lanes[d].len())
		}
		emittedLocal[w] = int64(lanes[w].len())
	}
	forEachWorker(workers, cfg.Parallel, name, "map", mapWorker)
	wallMap1 := int64(0)
	if tr != nil {
		wallMap1 = nowNs()
	}
	if w, fired := cfg.Faults.tick(workers); fired {
		// Lineage recovery: worker w's map output is lost and its task
		// re-runs from the in-memory shard while the other workers wait —
		// charged as an extra round carried by w alone (see MRConfig.Faults
		// for why the UDFs are not literally invoked a second time).
		if tr != nil {
			emitEv(telemetry.KindInstant, "fault", nowNs(), clock.Ns(),
				telemetry.I("worker", int64(w)), telemetry.S("phase", "map"))
		}
		redo := make([]float64, workers)
		redoBytes := make([]float64, workers)
		redoLocal := make([]float64, workers)
		redo[w] = mapNs[w]
		redoBytes[w] = float64(emitted[w]-emittedLocal[w]) * float64(cfg.PairBytes)
		redoLocal[w] = float64(emittedLocal[w]) * float64(cfg.PairBytes)
		clock.ChargeSuperstepTiered(redo, redoBytes, redoLocal)
		stats.Recoveries++
	}
	for w := 0; w < workers; w++ {
		outBytes[w] = float64(emitted[w]-emittedLocal[w]) * float64(cfg.PairBytes)
		localBytes[w] = float64(emittedLocal[w]) * float64(cfg.PairBytes)
		stats.Messages += emitted[w]
		stats.LocalMessages += emittedLocal[w]
		stats.RemoteMessages += emitted[w] - emittedLocal[w]
		stats.Bytes += emitted[w] * int64(cfg.PairBytes)
	}
	var simMap0, simComp float64
	if tr != nil {
		simMap0 = clock.Ns()
		_, simComp, _ = clock.SuperstepParts(mapNs, outBytes, localBytes)
	}
	clock.ChargeSuperstepTiered(mapNs, outBytes, localBytes)
	clock.CountMessages(stats.LocalMessages, stats.RemoteMessages)
	if cfg.Metrics != nil {
		cfg.Metrics.Counter("mr_jobs_total").Add(1)
		cfg.Metrics.Counter("mr_pairs_local_total").Add(stats.LocalMessages)
		cfg.Metrics.Counter("mr_pairs_remote_total").Add(stats.RemoteMessages)
		cfg.Metrics.Counter("mr_bytes_total").Add(stats.Bytes)
	}
	var wallRed0 int64
	if tr != nil {
		// The map span covers UDF execution; the shuffle span covers the
		// charged network transfer (its sim width is the λ + transfer part
		// of the map round's charge, its wall width the gap between the map
		// and reduce phases, where lane draining happens).
		wallRed0 = nowNs()
		emitEv(telemetry.KindBegin, "map", wallMap0, simMap0)
		emitEv(telemetry.KindEnd, "map", wallMap1, simMap0+simComp)
		emitEv(telemetry.KindBegin, "shuffle", wallMap1, simMap0+simComp)
		emitEv(telemetry.KindEnd, "shuffle", wallRed0, clock.Ns(),
			telemetry.I("pairs", stats.Messages))
		emitEv(telemetry.KindBegin, "reduce", wallRed0, clock.Ns())
	}

	// Shuffle + sort + reduce phase: destination worker d drains the lanes
	// buckets[*][d] into flat key and value arenas (sized exactly) in arrival
	// order, orders a permutation of arrival indices by (key, arrival index),
	// and reduces each key group against a values arena shared across groups.
	out := make([][]O, workers)
	redNs := make([]float64, workers)
	merged := make([]bool, workers)
	reduceWorker := func(d int) {
		total := 0
		for s := 0; s < workers; s++ {
			total += buckets[s][d].len()
		}
		keys := make([]K, 0, total)
		arrived := make([]V, 0, total)
		runs := make([]int, workers+1) // lane s arrived at [runs[s], runs[s+1])
		for s := 0; s < workers; s++ {
			lane := &buckets[s][d]
			keys = drain(keys, lane.fullK, lane.curK)
			arrived = drain(arrived, lane.fullV, lane.curV)
			*lane = mapLane[K, V]{}
			runs[s+1] = len(keys)
		}
		start := nowNs()
		var perm []int32
		// The one selection point, made from the key type and the input:
		// uint64 keys (every hot job) whose lanes all arrived ascending (the
		// k1 mapper emits its sorted scan in order) are merged; other uint64
		// keys take the radix kernel, which moves the keys along with the
		// permutation; any other key type sorts the permutation alone by
		// comparison, where (key, arrival index) being a total order makes
		// the unstable sort yield exactly the stable grouping.
		sorted, radix := any(keys).([]uint64)
		switch {
		case radix && runsAscending(sorted, runs):
			sorted, perm = mergeRuns(name, sorted, runs)
			keys = any(sorted).([]K)
			merged[d] = true
		case radix:
			perm = identityPerm(name, total)
			RadixSort(sorted, perm)
		default:
			perm = identityPerm(name, total)
			slices.SortFunc(perm, func(a, b int32) int {
				if keyLess(keys[a], keys[b]) {
					return -1
				}
				if keyLess(keys[b], keys[a]) {
					return 1
				}
				return int(a - b)
			})
		}
		vals := make([]V, total)
		for i, p := range perm {
			vals[i] = arrived[p]
		}
		emit := func(o O) { out[d] = append(out[d], o) }
		for i := 0; i < total; {
			j := i + 1
			var key K
			if radix {
				key = keys[i]
				for j < total && sorted[j] == sorted[i] {
					j++
				}
				if i > 0 && !keyLess(keys[i-1], key) {
					panic(fmt.Sprintf("pregel: MapReduce %q groups uint64 keys in ascending order, but its keyLess does not order %d before %d",
						name, sorted[i-1], sorted[i]))
				}
			} else {
				key = keys[perm[i]]
				for j < total && !keyLess(key, keys[perm[j]]) {
					j++
				}
			}
			reduceFn(d, key, vals[i:j], emit)
			i = j
		}
		redNs[d] = float64(nowNs() - start)
	}
	forEachWorker(workers, cfg.Parallel, name, "reduce", reduceWorker)
	if cfg.Metrics != nil {
		n := int64(0)
		for _, m := range merged {
			if m {
				n++
			}
		}
		cfg.Metrics.Counter("mr_reducers_merged_total").Add(n)
	}
	if d, fired := cfg.Faults.tick(workers); fired {
		// Lineage recovery: the failed reduce task re-runs from its lanes,
		// priced as an extra round carried by d alone.
		if tr != nil {
			emitEv(telemetry.KindInstant, "fault", nowNs(), clock.Ns(),
				telemetry.I("worker", int64(d)), telemetry.S("phase", "reduce"))
		}
		redo := make([]float64, workers)
		redo[d] = redNs[d]
		clock.ChargeSuperstep(redo, make([]float64, workers))
		stats.Recoveries++
	}
	clock.ChargeSuperstep(redNs, make([]float64, workers))
	stats.Supersteps = 2
	stats.SimSeconds = clock.Seconds()
	if tr != nil {
		wallRed1 := nowNs()
		emitEv(telemetry.KindEnd, "reduce", wallRed1, clock.Ns())
		emitEv(telemetry.KindEnd, "mr", wallRed1, clock.Ns(),
			telemetry.I("pairs", stats.Messages))
	}
	return out, stats
}

// identityPerm returns the arrival-index permutation 0..n-1 a reducer sorts.
// Indices are int32 to halve the sort's memory traffic; a reducer handed
// more pairs than that addresses fails here, loudly, before anything wraps.
func identityPerm(job string, n int) []int32 {
	checkArrivalBound(job, n)
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	return perm
}

func checkArrivalBound(job string, n int) {
	if n >= math.MaxInt32 {
		panic(fmt.Sprintf("pregel: MapReduce %q: a reducer received %d pairs, more than its int32 arrival index addresses", job, n))
	}
}

// mapLane is one mapper's output for one reducer, in emission order, held
// as a list of blocks that are filled once and never copied, so a lane
// wastes at most one block's tail. The mapper sizes the first block at one
// pair per input item, spread evenly over the reducers, and each next block
// doubles up to laneBlockPairs. A job whose map emits a whole shard from
// one item (DBG phase (i)) therefore starts every lane at a one-pair block
// and walks 1, 2, 4, … 4096 before its blocks reach full size. Keys
// and values sit in parallel blocks of equal capacity rather than in
// (key, value) structs, so a pair costs the two sizes and no padding (12
// bytes instead of 16 for DBG phase (i)'s (uint64, uint32)), and the
// reducer drains each lane with one bulk append per block and side.
type mapLane[K, V any] struct {
	fullK [][]K
	fullV [][]V
	curK  []K
	curV  []V
}

// laneBlockPairs caps a map-lane block after the first.
const laneBlockPairs = 4096

// grow starts a new current block of capacity c.
func (l *mapLane[K, V]) grow(c int) {
	l.curK = make([]K, 0, c)
	l.curV = make([]V, 0, c)
}

func (l *mapLane[K, V]) push(k K, v V) {
	if len(l.curK) == cap(l.curK) {
		l.fullK = append(l.fullK, l.curK)
		l.fullV = append(l.fullV, l.curV)
		l.grow(min(2*cap(l.curK), laneBlockPairs))
	}
	l.curK = append(l.curK, k)
	l.curV = append(l.curV, v)
}

func (l *mapLane[K, V]) len() int {
	n := len(l.curK)
	for _, b := range l.fullK {
		n += len(b)
	}
	return n
}

// drain appends one side of a lane, its full blocks and then cur, to dst in
// emission order. The reducer drains each lane's keys and values once and
// then drops the lane.
func drain[T any](dst []T, full [][]T, cur []T) []T {
	for _, b := range full {
		dst = append(dst, b...)
	}
	return append(dst, cur...)
}

// runsAscending reports whether every run keys[runs[s]:runs[s+1]] is in
// ascending order (equal neighbours allowed).
func runsAscending(keys []uint64, runs []int) bool {
	for s := 0; s+1 < len(runs); s++ {
		for i := runs[s] + 1; i < runs[s+1]; i++ {
			if keys[i] < keys[i-1] {
				return false
			}
		}
	}
	return true
}

// mergeRuns merges the ascending runs keys[runs[s]:runs[s+1]] into one
// ascending array and returns it with each position's arrival index. Equal
// keys leave the lower run first and each run in order, which is exactly
// the (key, arrival index) order RadixSort would produce. Each pair scans
// the runs' heads, one per source worker.
func mergeRuns(job string, keys []uint64, runs []int) ([]uint64, []int32) {
	checkArrivalBound(job, len(keys))
	head := slices.Clone(runs[:len(runs)-1])
	out := make([]uint64, len(keys))
	perm := make([]int32, len(keys))
	for i := range out {
		best := -1
		for s, h := range head {
			if h < runs[s+1] && (best < 0 || keys[h] < keys[head[best]]) {
				best = s
			}
		}
		p := head[best]
		out[i], perm[i] = keys[p], int32(p)
		head[best]++
	}
	return out, perm
}

// Uint64Hash is a keyHash for uint64-like keys (it applies the same mixing
// as vertex partitioning so adversarially structured keys still spread).
func Uint64Hash(k uint64) uint64 { return hashID(VertexID(k)) }

// ShardSlice splits items into w shards round-robin, simulating an even
// HDFS block distribution.
func ShardSlice[T any](items []T, w int) [][]T {
	if w <= 0 {
		w = 1
	}
	out := make([][]T, w)
	for s := range out {
		out[s] = make([]T, 0, (len(items)-s+w-1)/w)
	}
	for i, it := range items {
		out[i%w] = append(out[i%w], it)
	}
	return out
}

// Flatten concatenates per-worker shards in worker order.
func Flatten[T any](shards [][]T) []T { return slices.Concat(shards...) }
