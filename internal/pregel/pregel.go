// Package pregel implements a Pregel-like bulk-synchronous vertex-centric
// graph-processing engine in the spirit of Pregel+ (the backend the paper
// builds PPA-assembler on), together with the paper's two API extensions:
// a mini-MapReduce procedure for loading/grouping data by key (§II), and
// in-memory job concatenation via a convert UDF (§II).
//
// The engine partitions vertices across W logical workers with a pluggable
// Partitioner (by a hash of the vertex ID unless configured otherwise; see
// partition.go), runs user compute functions in numbered supersteps, shuffles
// messages between supersteps, supports vote-to-halt with reactivation on
// message receipt, aggregators, and vertex removal. It records per-superstep
// metrics (message counts, bytes, per-worker compute time) and charges them
// to a simulated distributed-cluster clock (see cost.go), which is how this
// reproduction obtains multi-machine scaling curves on a single host.
package pregel

import (
	"cmp"
	"fmt"
	"os"
	"slices"
	"sync"

	"ppaassembler/internal/telemetry"
)

// stderrWarnOnce backs the default Config.Warn sink: each distinct message
// goes to stderr once per process.
var stderrWarnOnce struct {
	mu   sync.Mutex
	seen map[string]bool
}

// warnf routes an engine diagnostic to Config.Warn, or to the deduplicated
// stderr sink when no Warn is configured.
func (g *Graph[V, M]) warnf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if g.cfg.Warn != nil {
		g.cfg.Warn(msg)
		return
	}
	stderrWarnOnce.mu.Lock()
	defer stderrWarnOnce.mu.Unlock()
	if stderrWarnOnce.seen[msg] {
		return
	}
	if stderrWarnOnce.seen == nil {
		stderrWarnOnce.seen = map[string]bool{}
	}
	stderrWarnOnce.seen[msg] = true
	fmt.Fprintf(os.Stderr, "warning: %s\n", msg)
}

// VertexID identifies a vertex. The assembler encodes k-mer sequences and
// contig (worker, ordinal) pairs directly into these 64-bit IDs (§IV-A).
type VertexID uint64

// Addr is a vertex's routing address within one Run: its worker in the high
// 32 bits and its position in that worker's partition in the low 32 (the ID
// recoding of GraphD, Yan et al., TPDS 2018). A message sent to an address
// (Context.SendTo) is delivered by indexing the position, where a message
// sent to an ID pays a hash probe of the destination's vertex index.
// Positions are those Run's compaction and ID sort leave, and nothing
// reorders a partition mid-run (RemoveSelf only marks a vertex removed), so
// an address stays valid to the end of the Run that handed it out
// (Context.Addr, or Graph.AddrOf in a RunAs in function) and means nothing
// after it.
type Addr uint64

// hashID mixes a vertex ID before partitioning so that structured IDs (e.g.
// contig IDs, which have a worker number in their high bits) still spread
// evenly across workers. SplitMix64 finalizer.
func hashID(id VertexID) uint64 {
	z := uint64(id) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Config controls engine construction.
type Config struct {
	// Workers is the number of logical workers (simulated machines).
	Workers int
	// Parallel runs every per-worker phase — compute, delivery, checkpoint
	// encode, vertex sort, Convert, MapReduce map and reduce — on the
	// engine's executor: min(Workers, GOMAXPROCS) goroutines that claim
	// worker indices one at a time (see forEachWorker). The pool is bounded
	// by the core count, not the worker count, so a logical worker has a core
	// to itself while its compute is being timed and the per-worker
	// nanoseconds that feed the simulated clock stay per-core measurements
	// rather than time-sliced ones. Results are bit-identical to sequential
	// execution for any worker count; only wall-clock time changes. The zero
	// value runs workers one after another on the calling goroutine: the
	// reference schedule (the CLI's -parallel=false) that engine tests and
	// allocation fences are written against. The assembler turns Parallel on
	// by default (core.DefaultOptions, ppa-assembler).
	Parallel bool
	// MessageBytes is the charged wire size of one message for the cost
	// model and byte metrics. Zero means DefaultMessageBytes.
	MessageBytes int
	// MaxSupersteps aborts a run that fails to terminate. Zero means
	// DefaultMaxSupersteps.
	MaxSupersteps int
	// Cost is the simulated-cluster cost model. Zero value = DefaultCost().
	Cost CostModel
	// Partitioner maps vertex IDs to workers (see Partitioner). Nil means
	// HashPartitioner, the engine's historical hashID-modulo placement.
	// Checkpoints record the partitioner's name; Resume under a different
	// one fails loudly instead of scattering partition-local state.
	Partitioner Partitioner

	// CheckpointEvery enables Pregel-style fault tolerance: every N
	// supersteps each run snapshots its vertex state, pending inboxes,
	// aggregators and counters (plus a baseline snapshot before superstep
	// 0), and a worker failure rolls the run back to the latest checkpoint
	// and replays. Zero disables checkpointing; a failure is then fatal to
	// the run. Checkpoint writes and recovery reads are charged to the
	// simulated clock via CostModel.CheckpointBytesPerSecond. Run refuses
	// a checkpointing run whose V or M lacks the binary value codec.
	CheckpointEvery int
	// Checkpointer stores the snapshots. Nil with CheckpointEvery > 0
	// installs a fresh MemCheckpointer; pass a DirCheckpointer (shared by
	// every stage of a pipeline) to survive process death.
	Checkpointer Checkpointer
	// Faults, when non-nil, is a worker-crash schedule for fault-injection
	// testing; see FaultPlan. Graphs created from this Config (including
	// via Convert) share the plan, so one schedule spans a whole pipeline.
	Faults *FaultPlan
	// Resume makes each Run look for an existing checkpoint of its job in
	// Checkpointer before starting, and fast-forward from it. With a
	// DirCheckpointer this is how a killed pipeline process picks up where
	// it left off: deterministic re-execution reserves the same job keys,
	// and every job restarts from its last completed checkpoint.
	Resume bool

	// JobPrefix is prepended to every run name before a checkpoint job key
	// is reserved. The workflow layer sets a per-op prefix derived from the
	// op's plan position (e.g. "s03.tiptrim."), so checkpoint keys are
	// deterministic and self-describing for arbitrary compositions.
	JobPrefix string

	// Tracer, when non-nil, receives structured span/event records for
	// every run on this graph: job start/end, each superstep's
	// compute/shuffle/barrier sub-phases, checkpoint saves/restores and
	// fault-plan firings, each stamped with both wall time and the
	// simulated-clock reading. Events are emitted only from coordinator
	// code at superstep barriers — never per message — and the span
	// sequence (timestamps aside) is deterministic across Parallel on/off,
	// worker counts and partitioners. Nil disables tracing with zero
	// allocations on the message path.
	Tracer telemetry.Tracer
	// Metrics, when non-nil, receives engine counters, gauges and
	// histograms (messages by network tier, bytes, supersteps, dropped
	// messages, checkpoint I/O, active/halted vertices, per-worker inbox
	// depths). Instrument handles are resolved once per run.
	Metrics *telemetry.Registry
	// Warn, when non-nil, receives the engine's non-fatal diagnostics: a
	// corrupt checkpoint artifact skipped during recovery. Nil routes each
	// distinct message to stderr once per process (repeats are
	// suppressed); a caller-supplied Warn receives every occurrence.
	Warn func(msg string)
}

// Validate rejects configurations that would otherwise be silently
// defaulted (zero values) or run nonsensically. It is meant to be called
// early — by CLIs and the workflow layer — so a typo like a negative
// worker count fails with a clear error before any compute starts.
func (c Config) Validate() error {
	if c.Workers <= 0 {
		return fmt.Errorf("pregel: Workers must be positive, got %d", c.Workers)
	}
	if c.MessageBytes < 0 {
		return fmt.Errorf("pregel: MessageBytes must not be negative, got %d", c.MessageBytes)
	}
	if c.MaxSupersteps < 0 {
		return fmt.Errorf("pregel: MaxSupersteps must not be negative, got %d", c.MaxSupersteps)
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("pregel: CheckpointEvery must not be negative, got %d", c.CheckpointEvery)
	}
	if c.Resume && c.CheckpointEvery <= 0 {
		return fmt.Errorf("pregel: Resume requires CheckpointEvery > 0 (there are no checkpoints to resume from)")
	}
	return nil
}

// Defaults for Config fields.
const (
	DefaultMessageBytes  = 16
	DefaultMaxSupersteps = 10000
)

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MessageBytes <= 0 {
		c.MessageBytes = DefaultMessageBytes
	}
	if c.MaxSupersteps <= 0 {
		c.MaxSupersteps = DefaultMaxSupersteps
	}
	if c.Cost == (CostModel{}) {
		c.Cost = DefaultCost()
	}
	if c.Partitioner == nil {
		c.Partitioner = HashPartitioner{}
	}
	if c.CheckpointEvery > 0 && c.Checkpointer == nil {
		c.Checkpointer = NewMemCheckpointer()
	}
	return c
}

// Compute is the user-defined compute(.) function: called once per active
// vertex per superstep with the messages delivered to that vertex.
type Compute[V, M any] func(ctx *Context[M], id VertexID, val *V, msgs []M)

// msgLane is one (source, destination) worker lane of routed messages as
// two parallel arrays: msg[i] is addressed to dst[i], a vertex ID or, when
// pos is set, a position in the destination partition (Context.SendTo).
// Delivery resolves destinations in one pass over dst (8 bytes a message)
// and copies payloads in a second pass over msg, so neither pass strides
// over the other's bytes.
type msgLane[M any] struct {
	dst []VertexID
	msg []M
	pos bool
}

func (l *msgLane[M]) reset() { l.dst, l.msg, l.pos = l.dst[:0], l.msg[:0], false }

// worker holds one partition of the vertex set. Vertices are kept in a
// slice sorted by ID (plus a flat position index, see vindex) so iteration
// order — and therefore message emission order and the whole computation —
// is deterministic.
//
// The message path is arena-based: outgoing messages accumulate in per-
// destination-worker lanes (sender.outbox), and incoming messages live in one
// flat per-worker arena (inArena) grouped by destination vertex via an offset
// index (inOff). Lanes and arenas keep their capacity across supersteps, so
// the steady-state shuffle allocates nothing. Each (src,dst) lane is written
// only by its source worker during compute and read only by its destination
// worker during delivery, which is what makes both phases safe to run
// concurrently across workers with no locks.
type worker[V, M any] struct {
	// The vertex partition, shared with the same worker of every graph
	// WithMessages relates to this one; everything below it is this graph's.
	*verts[V]

	// Inbox arena: messages for vertex i occupy inArena[inOff[i]:inOff[i+1]],
	// in (source worker, emission) order. inCur and rIdx are delivery
	// scratch (placement cursors; resolved vertex index per message).
	inArena []M
	inOff   []int32
	inCur   []int32
	rIdx    []int32

	sender[M]
	ctx Context[M]

	// Per-superstep delivery results, filled by deliverTo (this worker as
	// the destination), folded into run totals after the barrier.
	delivered  int64
	dropped    int64
	deliverErr error
}

// sender is the send half of a worker: everything Context.Send and the
// aggregator calls touch, apart from the vertex arrays so that Context[M]
// can point straight at it without knowing V. It is written only by its own
// worker's compute pass, which is why none of it needs a lock.
type sender[M any] struct {
	self int         // this worker's index
	part Partitioner // placement; nil for the default hash, which send calls statically
	agg  *aggState

	outbox []msgLane[M] // one lane per destination worker, so len(outbox) is the worker count

	// by is how this superstep's messages name their destinations: sendNone
	// until the first send, then sendID (Send) or sendAddr (SendTo) for the
	// rest of the superstep. job names the run in the panic for a mix.
	by  uint8
	job string
}

// sent returns the messages this worker's outbox holds after its compute
// pass, and how many of them are addressed back to it.
func (s *sender[M]) sent() (msgs, local int64) {
	for _, l := range s.outbox {
		msgs += int64(len(l.dst))
	}
	return msgs, int64(len(s.outbox[s.self].dst))
}

// Destination kinds of one superstep's sends (sender.by).
const (
	sendNone uint8 = iota
	sendID
	sendAddr
)

// setBy fixes the destination kind of this superstep's sends at its first
// message. Delivery resolves a whole lane one way, so a program that mixes
// Send and SendTo within one superstep is a bug, reported at once.
func (s *sender[M]) setBy(by uint8) {
	if s.by != sendNone {
		panic(fmt.Sprintf("pregel: job %q mixes Send and SendTo in one superstep", s.job))
	}
	s.by = by
	for i := range s.outbox {
		s.outbox[i].pos = by == sendAddr
	}
}

// verts is one worker's partition of the vertex set: the IDs (kept sorted
// by Run), their position index, values and halted/removed flags. A RunAs
// copy shares its parent's IDs and starts unindexed (lazy): a job that only
// sends by address never needs the index, so it is built on first use.
type verts[V any] struct {
	ids    []VertexID
	idx    vindex
	lazy   bool
	vals   []V
	active []bool
	dead   []bool
	nDead  int
}

func (w *verts[V]) vertexCount() int { return len(w.ids) - w.nDead }

// index returns the position index of w, building it first if w is lazy.
func (w *verts[V]) index() *vindex {
	if w.lazy {
		w.idx.rebuild(w.ids, len(w.ids))
		w.lazy = false
	}
	return &w.idx
}

// Graph is a distributed vertex collection plus engine state. Create one
// with NewGraph, populate it with AddVertex (or via MapReduce/Convert), then
// Run one or more jobs over it.
type Graph[V, M any] struct {
	cfg     Config
	workers []*worker[V, M]
	clock   *SimClock
	agg     *aggState

	// Per-superstep scratch, reused across supersteps and runs.
	computeNs      []float64
	bytesPerWorker []float64
	localBytes     []float64

	// runName is the current run's label (set by Run), used for pprof
	// labels on the delivery and checkpoint phases.
	runName string
}

// NewGraph creates an empty graph with the given configuration.
func NewGraph[V, M any](cfg Config) *Graph[V, M] {
	cfg = cfg.withDefaults()
	vs := make([]*verts[V], cfg.Workers)
	for i := range vs {
		vs[i] = &verts[V]{}
	}
	return newGraph[V, M](cfg, NewSimClock(cfg.Cost), vs)
}

// newGraph builds a graph over the given vertex partitions, one per worker,
// with message lanes, inbox arenas and aggregators of its own.
func newGraph[V, M any](cfg Config, clock *SimClock, vs []*verts[V]) *Graph[V, M] {
	g := &Graph[V, M]{cfg: cfg, clock: clock, agg: newAggState(cfg.Workers)}
	part := cfg.Partitioner
	if _, ok := part.(HashPartitioner); ok {
		part = nil
	}
	for i := 0; i < cfg.Workers; i++ {
		g.workers = append(g.workers, &worker[V, M]{
			verts:  vs[i],
			sender: sender[M]{self: i, part: part, agg: g.agg, outbox: make([]msgLane[M], cfg.Workers)},
		})
	}
	return g
}

// WithMessages returns a graph that runs jobs with message type M2 over g's
// own vertices. Pregel+ ties the message class to the vertex program, not
// to the graph (§II): a job whose messages are smaller than M moves fewer
// shuffle bytes, and no vertex is copied as Convert would copy it. The two
// graphs share every worker's vertex partition (IDs, values, halted and
// removed flags) and the simulated clock; each keeps its own message lanes,
// inbox arenas and aggregators. The view takes g's configuration
// as it is now, with messageBytes as the charged wire size of one M2
// (zero means DefaultMessageBytes). Runs on g and on its views must not
// overlap, since each Run sorts and rewrites the shared partitions.
func WithMessages[M2, V, M any](g *Graph[V, M], messageBytes int) *Graph[V, M2] {
	cfg := g.cfg
	cfg.MessageBytes = messageBytes
	vs := make([]*verts[V], len(g.workers))
	for i, w := range g.workers {
		vs[i] = w.verts
	}
	return newGraph[V, M2](cfg.withDefaults(), g.clock, vs)
}

// RunAs runs one job with vertex values of type V2 and messages of type M2
// over g's vertices: the values counterpart of WithMessages, for a job whose
// state is a small part of V (Pregel+ ties the vertex class to the vertex
// program, §II). Each worker's partition is copied by position — the IDs
// shared read-only, nothing re-sharded or re-inserted, the ID index built
// only if a message is sent to that worker by ID — and in builds every live
// vertex's V2 from its V. Positions in the copy are g's, so in may resolve
// the addresses the job sends to with g.AddrOf. The job then runs through
// Graph.Run, so checkpoints, faults and Resume behave as for any job, with
// messageBytes the charged wire size of one M2 (zero means
// DefaultMessageBytes). Afterwards out hands each surviving vertex its V2 back,
// on the executor like in; a vertex the job removed (RemoveSelf) is removed
// from g instead. A failed job hands nothing back. The copy does not outlive
// the call.
func RunAs[V2, M2, V, M any](g *Graph[V, M], messageBytes int,
	in func(VertexID, *V) V2, compute Compute[V2, M2], out func(VertexID, *V, *V2),
	opts ...RunOption) (*Stats, error) {
	var o runOpts
	for _, opt := range opts {
		opt(&o)
	}
	// Compacted and sorted, g's partitions are what the copy's Run would
	// sort them into, so positions in the two agree throughout.
	g.runName = o.name
	g.sortVertices()
	vs := make([]*verts[V2], len(g.workers))
	forEachWorker(g.cfg.Workers, g.cfg.Parallel, o.name, "convert", func(wi int) {
		w := g.workers[wi]
		n := len(w.ids)
		c := &verts[V2]{
			ids:    w.ids[:n:n], // capped: an append to the copy reallocates
			lazy:   true,
			vals:   make([]V2, n),
			active: make([]bool, n),
			dead:   make([]bool, n),
		}
		for i, id := range w.ids {
			c.vals[i] = in(id, &w.vals[i])
		}
		vs[wi] = c
	})
	cfg := g.cfg
	cfg.MessageBytes = messageBytes
	view := newGraph[V2, M2](cfg.withDefaults(), g.clock, vs)
	stats, err := view.Run(compute, opts...)
	if err != nil {
		return stats, err
	}
	forEachWorker(g.cfg.Workers, g.cfg.Parallel, o.name, "convert", func(wi int) {
		w, c := g.workers[wi], view.workers[wi]
		for i, id := range w.ids {
			if c.dead[i] {
				w.dead[i] = true
				w.nDead++
				continue
			}
			w.active[i] = c.active[i]
			out(id, &w.vals[i], &c.vals[i])
		}
	})
	return stats, nil
}

// Workers returns the number of logical workers.
func (g *Graph[V, M]) Workers() int { return g.cfg.Workers }

// Config returns the (defaulted) configuration the graph was built with, so
// downstream stages can inherit Parallel and cost settings.
func (g *Graph[V, M]) Config() Config { return g.cfg }

// Clock returns the simulated-cluster clock shared by all jobs on g.
func (g *Graph[V, M]) Clock() *SimClock { return g.clock }

// SetJobPrefix replaces the checkpoint job-key prefix for subsequent runs
// on g (see Config.JobPrefix). The workflow layer calls this before every
// op that reuses an existing graph, so each op's jobs reserve keys under
// the op's own prefix.
func (g *Graph[V, M]) SetJobPrefix(prefix string) { g.cfg.JobPrefix = prefix }

// AddrOf returns the address of vertex id, for a job that sends to it by
// address. It is meant for RunAs's in function, where g has just been sorted
// and the copy's positions are g's; like every address it is valid for that
// one run. It reads the ID index only, so a vertex removed since g's last
// compaction still resolves.
func (g *Graph[V, M]) AddrOf(id VertexID) (Addr, bool) {
	wi := g.WorkerOf(id)
	w := g.workers[wi]
	i, ok := w.index().lookup(w.ids, id)
	return Addr(uint64(wi)<<32 | uint64(i)), ok
}

// WorkerOf returns the worker index that owns id, as decided by the
// configured Partitioner. Every placement decision in the engine routes
// through here: vertex insertion, message-lane addressing, point lookups,
// and the Convert re-shard.
func (g *Graph[V, M]) WorkerOf(id VertexID) int {
	return g.cfg.Partitioner.Assign(id, g.cfg.Workers)
}

// Partitioner returns the (defaulted) placement strategy of this graph.
func (g *Graph[V, M]) Partitioner() Partitioner { return g.cfg.Partitioner }

// AddVertex inserts a vertex. Adding an existing ID replaces its value.
// AddVertex must not be called while Run is executing.
func (g *Graph[V, M]) AddVertex(id VertexID, val V) { g.workers[g.WorkerOf(id)].add(id, val) }

func (w *verts[V]) add(id VertexID, val V) {
	if i, ok := w.index().lookup(w.ids, id); ok {
		if w.dead[i] {
			w.dead[i] = false
			w.nDead--
		}
		w.vals[i] = val
		return
	}
	w.ids = append(w.ids, id)
	w.idx.push(w.ids)
	w.vals = append(w.vals, val)
	w.active = append(w.active, true)
	w.dead = append(w.dead, false)
}

// reserve is the bulk-load helper behind Convert and LoadShards: it sizes
// every per-vertex array and the index of w for n more vertices, once, so
// the inserts that follow never regrow or rehash.
func (w *verts[V]) reserve(n int) {
	w.ids = slices.Grow(w.ids, n)
	w.vals = slices.Grow(w.vals, n)
	w.active = slices.Grow(w.active, n)
	w.dead = slices.Grow(w.dead, n)
	w.index().reserve(w.ids, len(w.ids)+n)
}

// LoadShards bulk-inserts records, vertex projecting each to its (ID, value).
// len(shards[w]) sizes worker w — exact for reducer output grouped through
// g's partitioner, which is also born ID-sorted, so the first Run finds
// nothing to sort — but WorkerOf still places every vertex, as AddVertex.
func LoadShards[V, M, T any](g *Graph[V, M], shards [][]T, vertex func(*T) (VertexID, V)) {
	for w, shard := range shards {
		if w < len(g.workers) {
			g.workers[w].reserve(len(shard))
		}
	}
	for _, shard := range shards {
		for i := range shard {
			g.AddVertex(vertex(&shard[i]))
		}
	}
}

// sortVertices readies every worker for a Run: all vertices active, inbox
// empty. A worker already ID-sorted with nothing removed (a bulk load from
// sorted input; any Run after the first on an unchanged graph) stays put.
func (g *Graph[V, M]) sortVertices() {
	forEachWorker(g.cfg.Workers, g.cfg.Parallel, g.runName, "sort", func(wi int) {
		w := g.workers[wi]
		if w.nDead > 0 || !slices.IsSorted(w.ids) {
			w.compactSort()
		}
		n := len(w.ids)
		for i := range w.active {
			w.active[i] = true
		}
		// Empty inbox: all offsets zero, so superstep 0 sees no messages.
		w.inArena = w.inArena[:0]
		w.inOff = growTo(w.inOff, n+1)
		clear(w.inOff)
		w.inCur = growTo(w.inCur, n)
	})
}

// compactSort rebuilds w at exact size without its removed vertices and in
// ID order: a permutation of the live 4-byte indices is sorted by ID, then
// each vertex is gathered once.
func (w *verts[V]) compactSort() {
	perm := make([]int32, 0, w.vertexCount())
	for i := range w.ids {
		if !w.dead[i] {
			perm = append(perm, int32(i))
		}
	}
	slices.SortFunc(perm, func(a, b int32) int { return cmp.Compare(w.ids[a], w.ids[b]) })
	ids, vals := make([]VertexID, len(perm)), make([]V, len(perm))
	for i, p := range perm {
		ids[i], vals[i] = w.ids[p], w.vals[p]
	}
	w.ids, w.vals, w.nDead = ids, vals, 0
	w.active, w.dead = make([]bool, len(perm)), make([]bool, len(perm))
	w.idx.rebuild(w.ids, len(w.ids))
	w.lazy = false
}

// live returns the position of id if w holds it and it has not been removed.
func (w *verts[V]) live(id VertexID) (int, bool) {
	i, ok := w.index().lookup(w.ids, id)
	return i, ok && !w.dead[i]
}

// growTo returns s resized to n, reallocating only when capacity is
// insufficient.
func growTo[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// VertexCount returns the number of live vertices.
func (g *Graph[V, M]) VertexCount() int {
	n := 0
	for _, w := range g.workers {
		n += w.vertexCount()
	}
	return n
}

// ForEach calls fn for every live vertex, in worker order then ID order.
// The value pointer may be used to read or mutate the vertex value.
func (g *Graph[V, M]) ForEach(fn func(id VertexID, val *V)) {
	for _, w := range g.workers {
		for i, id := range w.ids {
			if !w.dead[i] {
				fn(id, &w.vals[i])
			}
		}
	}
}

// ForEachWorker calls fn(workerIndex, id, val) for every live vertex, in
// worker order then ID order, for callers that need to know which worker
// owns a vertex (staging dumps one part-file per worker).
func (g *Graph[V, M]) ForEachWorker(fn func(worker int, id VertexID, val *V)) {
	for wi, w := range g.workers {
		for i, id := range w.ids {
			if !w.dead[i] {
				fn(wi, id, &w.vals[i])
			}
		}
	}
}

// ScanWorkers is ForEachWorker on the engine's executor: under
// Config.Parallel the workers are scanned concurrently (each worker's own
// vertices still in ID order), so fn may only touch state owned by the
// worker index it is handed.
func (g *Graph[V, M]) ScanWorkers(fn func(worker int, id VertexID, val *V)) {
	forEachWorker(g.cfg.Workers, g.cfg.Parallel, g.cfg.JobPrefix, "scan", func(wi int) {
		w := g.workers[wi]
		for i, id := range w.ids {
			if !w.dead[i] {
				fn(wi, id, &w.vals[i])
			}
		}
	})
}

// Value returns the value of vertex id, if present.
func (g *Graph[V, M]) Value(id VertexID) (V, bool) {
	w := g.workers[g.WorkerOf(id)]
	if i, ok := w.live(id); ok {
		return w.vals[i], true
	}
	var zero V
	return zero, false
}

// SetValue overwrites the value of an existing vertex and reports whether
// the vertex was present.
func (g *Graph[V, M]) SetValue(id VertexID, val V) bool {
	w := g.workers[g.WorkerOf(id)]
	if i, ok := w.live(id); ok {
		w.vals[i] = val
		return true
	}
	return false
}

// RemoveVertex deletes a vertex outside of a run.
func (g *Graph[V, M]) RemoveVertex(id VertexID) {
	w := g.workers[g.WorkerOf(id)]
	if i, ok := w.live(id); ok {
		w.dead[i] = true
		w.nDead++
	}
}

// RunOption modifies a single Run.
type RunOption func(*runOpts)

type runOpts struct {
	activateAll bool
	name        string
}

// WithName labels the run in its Stats (useful when several jobs share a
// graph and a clock).
func WithName(name string) RunOption { return func(o *runOpts) { o.name = name } }

// Run executes compute over the graph in supersteps until every vertex has
// voted to halt and no messages are in flight, or the superstep limit is
// reached. All vertices start active (standard Pregel semantics). It returns
// per-run statistics; simulated time is also accumulated on g.Clock().
//
// With Config.CheckpointEvery set, the run snapshots its state every N
// supersteps (plus a baseline before superstep 0); a worker crash injected
// by Config.Faults rolls back to the latest checkpoint and replays, and —
// because the engine is deterministic — finishes with the same vertex
// values, aggregators and counters as an unfailed run (only Recoveries and
// simulated time differ). With Config.Resume the run first fast-forwards
// from any checkpoint a previous process left in Config.Checkpointer.
func (g *Graph[V, M]) Run(compute Compute[V, M], opts ...RunOption) (*Stats, error) {
	o := runOpts{activateAll: true}
	for _, opt := range opts {
		opt(&o)
	}
	stats := &Stats{Name: o.name, Workers: g.cfg.Workers}
	if err := g.checkCodecs(o.name); err != nil {
		return stats, err
	}
	g.runName = o.name
	g.sortVertices()
	g.agg.reset()
	for _, w := range g.workers {
		w.job = o.name
	}
	tr := g.cfg.Tracer
	rm := newRunMetrics(g.cfg.Metrics)
	if tr != nil {
		g.emit(telemetry.KindBegin, "job", "pregel", nowNs(), g.clock.Ns(),
			telemetry.S("name", o.name), telemetry.I("vertices", int64(g.VertexCount())))
		heap := telemetry.WatchHeap()
		defer func() {
			g.emit(telemetry.KindEnd, "job", "pregel", nowNs(), g.clock.Ns(),
				telemetry.I("supersteps", int64(stats.Supersteps)),
				telemetry.I("messages", stats.Messages),
				telemetry.M("heap_live_max_bytes", heap.Close()))
		}()
	}

	ck, err := g.newCkptRun(o.name)
	if err != nil {
		return stats, err
	}
	step := 0
	pending := int64(0) // messages delivered at the last barrier
	if ck != nil {
		restored := false
		if g.cfg.Resume {
			file, ok, err := ck.loadCheckpoint()
			if err != nil {
				return stats, err
			}
			if ok {
				if step, pending, err = g.restoreCheckpoint(file, stats); err != nil {
					return stats, err
				}
				restored = true
			}
		}
		if !restored {
			// Baseline: recovery from a crash before the first cadence
			// checkpoint restarts the job from its input state.
			if err := g.saveCheckpoint(ck, 0, 0, stats); err != nil {
				return stats, err
			}
		}
	}

	for {
		if step >= g.cfg.MaxSupersteps {
			return stats, fmt.Errorf("pregel: job %q exceeded %d supersteps", o.name, g.cfg.MaxSupersteps)
		}
		anyActive := false
		for _, w := range g.workers {
			for i := range w.active {
				if w.active[i] && !w.dead[i] {
					anyActive = true
					break
				}
			}
			if anyActive {
				break
			}
		}
		if !anyActive && pending == 0 {
			break
		}

		// Fault injection: the crash consumes the round (its work is lost)
		// and the run rolls back to the latest checkpoint.
		if w, fired := g.cfg.Faults.tick(g.cfg.Workers); fired {
			if tr != nil {
				g.emit(telemetry.KindInstant, "fault", "fault", nowNs(), g.clock.Ns(),
					telemetry.I("worker", int64(w)), telemetry.I("step", int64(step)))
			}
			if ck == nil {
				return stats, fmt.Errorf("pregel: job %q: worker %d crashed at superstep %d with checkpointing disabled", o.name, w, step)
			}
			file, ok, err := ck.loadCheckpoint()
			if err != nil {
				return stats, err
			}
			if !ok {
				return stats, fmt.Errorf("pregel: job %q: worker %d crashed at superstep %d but no checkpoint exists", o.name, w, step)
			}
			if step, pending, err = g.restoreCheckpoint(file, stats); err != nil {
				return stats, err
			}
			stats.Recoveries++
			if g.cfg.Metrics != nil {
				g.cfg.Metrics.Counter("pregel_recoveries_total").Add(1)
			}
			continue
		}

		if g.computeNs == nil {
			g.computeNs = make([]float64, g.cfg.Workers)
			g.bytesPerWorker = make([]float64, g.cfg.Workers)
			g.localBytes = make([]float64, g.cfg.Workers)
		}
		// Telemetry observes at the barrier only: wall marks bracket the
		// phases, the sim-timeline sub-phase boundaries are synthesized from
		// SuperstepParts, and the events are emitted together after the
		// charge so the disabled path costs one branch and no allocations.
		var activeVerts, haltedVerts int64
		var wall0, wall1, wall2 int64
		var sim0 float64
		if tr != nil || rm != nil {
			activeVerts, haltedVerts = g.countVertices()
		}
		if tr != nil {
			wall0 = nowNs()
			sim0 = g.clock.Ns()
		}
		computeNs := g.computeNs
		forEachWorker(g.cfg.Workers, g.cfg.Parallel, o.name, "compute", func(wi int) {
			computeNs[wi] = g.runWorker(wi, step, compute)
		})
		// Whether a program mixes Send and SendTo must not depend on which
		// vertices share a worker.
		by := sendNone
		for _, w := range g.workers {
			if by == sendNone {
				by = w.by
			} else if w.by != sendNone && w.by != by {
				panic(fmt.Sprintf("pregel: job %q mixes Send and SendTo in superstep %d", o.name, step))
			}
		}
		if tr != nil {
			wall1 = nowNs()
		}
		// Barrier: deliver messages, apply aggregator values, record stats.
		delivered, dropped, err := g.deliver()
		if tr != nil {
			wall2 = nowNs()
		}
		if err != nil {
			return stats, err
		}
		// Two-tier network charge: a worker's self-addressed messages stay
		// intra-machine; only the rest travel the simulated wire.
		msgs, local := int64(0), int64(0)
		bytesPerWorker, localBytes := g.bytesPerWorker, g.localBytes
		for wi, w := range g.workers {
			out, self := w.sent()
			msgs += out
			local += self
			bytesPerWorker[wi] = float64(out-self) * float64(g.cfg.MessageBytes)
			localBytes[wi] = float64(self) * float64(g.cfg.MessageBytes)
		}
		var simComp, simNet float64
		if tr != nil {
			_, simComp, simNet = g.clock.SuperstepParts(computeNs, bytesPerWorker, localBytes)
		}
		g.clock.ChargeSuperstepTiered(computeNs, bytesPerWorker, localBytes)
		g.clock.CountMessages(local, msgs-local)
		stats.Supersteps++
		stats.Messages += msgs
		stats.LocalMessages += local
		stats.RemoteMessages += msgs - local
		stats.Bytes += msgs * int64(g.cfg.MessageBytes)
		stats.DroppedMessages += dropped
		if rm != nil {
			rm.localMsgs.Add(local)
			rm.remoteMsgs.Add(msgs - local)
			rm.bytes.Add(msgs * int64(g.cfg.MessageBytes))
			rm.supersteps.Add(1)
			rm.dropped.Add(dropped)
			rm.activeVerts.Set(activeVerts)
			rm.haltedVerts.Set(haltedVerts)
			for _, w := range g.workers {
				rm.inboxDepth.Observe(float64(w.delivered))
			}
		}
		if tr != nil {
			// Span args carry only placement-invariant totals (step, active
			// vertices, delivered/dropped/message counts) so the signature
			// sequence is identical across partitioners and worker counts.
			wall3 := nowNs()
			sim1 := g.clock.Ns()
			telemetry.SampleHeap()
			g.emit(telemetry.KindBegin, "superstep", "pregel", wall0, sim0,
				telemetry.I("step", int64(step)), telemetry.I("active", activeVerts))
			g.emit(telemetry.KindBegin, "compute", "phase", wall0, sim0)
			g.emit(telemetry.KindEnd, "compute", "phase", wall1, sim0+simComp)
			g.emit(telemetry.KindBegin, "shuffle", "phase", wall1, sim0+simComp)
			g.emit(telemetry.KindEnd, "shuffle", "phase", wall2, sim0+simComp+simNet,
				telemetry.I("delivered", delivered), telemetry.I("dropped", dropped))
			g.emit(telemetry.KindBegin, "barrier", "phase", wall2, sim0+simComp+simNet)
			g.emit(telemetry.KindEnd, "barrier", "phase", wall3, sim1)
			g.emit(telemetry.KindEnd, "superstep", "pregel", wall3, sim1,
				telemetry.I("messages", msgs))
		}
		g.agg.flip()
		pending = delivered
		step++
		if ck != nil && step%ck.every == 0 {
			if err := g.saveCheckpoint(ck, step, pending, stats); err != nil {
				return stats, err
			}
		}
	}
	if ck != nil {
		ck.releaseSnapshot()
	}
	stats.SimSeconds = g.clock.Seconds() // cumulative; callers can diff
	return stats, nil
}

// runWorker executes one superstep for one worker partition and returns the
// measured compute nanoseconds.
func (g *Graph[V, M]) runWorker(wi, step int, compute Compute[V, M]) float64 {
	w := g.workers[wi]
	w.beginSuperstep()
	w.ctx = Context[M]{s: &w.sender, superstep: step}
	ctx := &w.ctx
	vs := w.verts
	start := nowNs()
	for i := range vs.ids {
		if vs.dead[i] {
			continue
		}
		msgs := w.inArena[w.inOff[i]:w.inOff[i+1]]
		if len(msgs) > 0 {
			vs.active[i] = true
		}
		if !vs.active[i] {
			continue
		}
		ctx.halt = false
		ctx.remove = false
		ctx.pos = uint32(i)
		compute(ctx, vs.ids[i], &vs.vals[i], msgs)
		if ctx.remove {
			vs.dead[i] = true
			vs.nDead++
		} else if ctx.halt {
			vs.active[i] = false
		}
	}
	return float64(nowNs() - start)
}

// beginSuperstep empties the lanes.
func (s *sender[M]) beginSuperstep() {
	for i := range s.outbox {
		s.outbox[i].reset()
	}
	s.by = sendNone
}

// send routes one message into the lane for its destination worker.
func (s *sender[M]) send(dst VertexID, m M) {
	if s.by != sendID {
		s.setBy(sendID)
	}
	if s.part == nil {
		s.put(HashPartitioner{}.Assign(dst, len(s.outbox)), dst, m)
	} else {
		s.put(s.part.Assign(dst, len(s.outbox)), dst, m)
	}
}

// sendTo routes one message into the lane of the worker a names, keyed by
// the position a names there.
func (s *sender[M]) sendTo(a Addr, m M) {
	if s.by != sendAddr {
		s.setBy(sendAddr)
	}
	s.put(int(a>>32), VertexID(uint32(a)), m)
}

// put appends m for destination dst (an ID or a position, as the lane
// holds) to the lane of worker dwi.
func (s *sender[M]) put(dwi int, dst VertexID, m M) {
	l := &s.outbox[dwi]
	l.dst = append(l.dst, dst)
	l.msg = append(l.msg, m)
}

// deliver is the barriered shuffle: once every worker has computed, each
// destination rebuilds its inbox (deliverTo), concurrently under Parallel,
// and the per-destination results fold into run totals.
func (g *Graph[V, M]) deliver() (delivered, dropped int64, err error) {
	forEachWorker(g.cfg.Workers, g.cfg.Parallel, g.runName, "deliver", g.deliverTo)
	for _, w := range g.workers {
		delivered += w.delivered
		dropped += w.dropped
		if err == nil && w.deliverErr != nil {
			err = w.deliverErr
		}
	}
	return delivered, dropped, err
}

// deliverTo rebuilds destination worker dwi's inbox arena for the next
// superstep: the engine's one delivery pass, whatever the schedule. It reads
// each source worker's outbox column for dwi, counting each lane
// (countLane), then lays out and fills the arena (placeInbox). Both passes
// take lanes in source-worker order, which gives each vertex's messages the
// engine's (source worker, emission) order.
//
// A destination drains only lanes addressed to it and touches only its own
// arena, so deliverTo runs concurrently for all destinations under Parallel,
// bit-identically to the sequential path because a lane is fixed once its
// source has finished computing.
func (g *Graph[V, M]) deliverTo(dwi int) {
	dst := g.workers[dwi]
	dst.delivered, dst.dropped, dst.deliverErr = 0, 0, nil
	clear(dst.inCur[:len(dst.ids)])
	dst.rIdx = dst.rIdx[:0]
	for _, src := range g.workers {
		g.countLane(dst, src.outbox[dwi])
	}
	g.placeInbox(dst)
}

// countLane is the resolve-and-count half of delivery for one source lane:
// each message's destination vertex index is resolved (and remembered in
// rIdx for the placement pass), per-vertex counts accumulate, and messages
// to missing or removed vertices are counted as dropped. An ID lane resolves
// through the vertex index; a position lane is the index already, so it is
// only bounds- and removal-checked, and a position outside the partition
// fails the run.
func (g *Graph[V, M]) countLane(dst *worker[V, M], lane msgLane[M]) {
	vs := dst.verts
	n := len(vs.ids)
	counts := dst.inCur[:n]
	base := len(dst.rIdx)
	rIdx := slices.Grow(dst.rIdx, len(lane.dst))[:base+len(lane.dst)]
	for m, key := range lane.dst {
		i, ok := int(key), false
		if !lane.pos {
			i, ok = vs.live(key)
		} else if key < VertexID(n) {
			ok = !vs.dead[i]
		} else {
			rIdx[base+m] = -1
			if dst.deliverErr == nil {
				dst.deliverErr = fmt.Errorf("pregel: job %q: message to position %d of worker %d, whose partition has %d vertices",
					g.runName, key, dst.self, n)
			}
			continue
		}
		if !ok {
			rIdx[base+m] = -1
			dst.dropped++
			continue
		}
		rIdx[base+m] = int32(i)
		dst.delivered++
		counts[i]++
	}
	dst.rIdx = rIdx
}

// placeInbox is the layout-and-place half of delivery: a prefix sum over
// the per-vertex counts becomes the offset index, then the messages of
// dst's lanes are copied into their group in lane order.
func (g *Graph[V, M]) placeInbox(dst *worker[V, M]) {
	n := len(dst.ids)
	counts := dst.inCur[:n]
	off := int32(0)
	for i := 0; i < n; i++ {
		c := counts[i]
		dst.inOff[i] = off
		counts[i] = off // becomes the placement cursor
		off += c
	}
	dst.inOff[n] = off
	dst.inArena = growTo(dst.inArena, int(off))
	rIdx := dst.rIdx
	for _, src := range g.workers {
		lane := src.outbox[dst.self]
		for k, msg := range lane.msg {
			i := rIdx[k]
			if i < 0 {
				continue
			}
			dst.inArena[counts[i]] = msg
			counts[i]++
		}
		rIdx = rIdx[len(lane.msg):]
	}
}

// Context is passed to the compute function. It is only valid for the
// duration of one compute call.
type Context[M any] struct {
	s         *sender[M]
	superstep int
	pos       uint32 // the computing vertex's position in its partition
	halt      bool
	remove    bool
}

// Superstep returns the current superstep number (0-based).
func (c *Context[M]) Superstep() int { return c.superstep }

// Worker returns the index of the worker executing this vertex.
func (c *Context[M]) Worker() int { return c.s.self }

// NumWorkers returns the number of logical workers.
func (c *Context[M]) NumWorkers() int { return len(c.s.outbox) }

// Addr returns this vertex's address, valid until the end of the run.
func (c *Context[M]) Addr() Addr { return Addr(uint64(c.s.self)<<32 | uint64(c.pos)) }

// Send sends m to vertex dst, to be delivered next superstep.
func (c *Context[M]) Send(dst VertexID, m M) { c.s.send(dst, m) }

// SendTo sends m to the vertex at address a (Context.Addr, Graph.AddrOf),
// to be delivered next superstep: the same delivery as Send to that
// vertex's ID, without the ID lookup at the destination. The messages of
// one superstep go either by ID or by address, never both (a mix panics),
// and a position outside its worker's partition fails the run.
func (c *Context[M]) SendTo(a Addr, m M) { c.s.sendTo(a, m) }

// VoteToHalt deactivates this vertex; it is reactivated by any incoming
// message.
func (c *Context[M]) VoteToHalt() { c.halt = true }

// RemoveSelf deletes this vertex at the end of the superstep. Messages
// already addressed to it are dropped.
func (c *Context[M]) RemoveSelf() { c.remove = true }

// AggSum adds delta to the named sum aggregator for this superstep.
func (c *Context[M]) AggSum(name string, delta int64) { c.s.agg.acc[c.s.self].addSum(name, delta) }

// AggOr ORs v into the named boolean aggregator for this superstep.
func (c *Context[M]) AggOr(name string, v bool) { c.s.agg.acc[c.s.self].addOr(name, v) }

// PrevAggSum returns the value the named sum aggregator had at the end of
// the previous superstep (0 if never set).
func (c *Context[M]) PrevAggSum(name string) int64 { return c.s.agg.prevSum(name) }

// PrevAggOr returns the previous-superstep boolean OR aggregator value.
func (c *Context[M]) PrevAggOr(name string) bool { return c.s.agg.prevOr(name) }
