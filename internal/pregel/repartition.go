package pregel

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"ppaassembler/internal/telemetry"
)

// Online adaptive repartitioning: the engine observes which vertices
// actually talk to each other (a per-(sender, receiver) message matrix
// recorded at Send time over a trailing observation window), and at
// configurable superstep boundaries condenses the hottest communicating
// vertex groups onto single workers. Placement overrides
// live in a versioned routing table layered over the base Partitioner, so
// every placement decision — WorkerOf, lane addressing, Convert re-shards,
// point lookups, MapReduce key grouping — picks up a migration the moment
// it commits. Migrated partition state (value, flags, pending inbox) rides
// the binary checkpoint codec between workers — over the Transport when one
// is active, so a tcp run really ships the bytes — and the traffic is
// charged to the SimClock via CostModel.MigrationBytesPerSecond.
//
// Migrations commit only at superstep barriers, after delivery and the
// transport barrier and before the cadence checkpoint, so a checkpoint
// always captures post-migration state and the routing table that produced
// it (PPCK v7 persists the table; Resume restores placement exactly).
// Because the engine's applications are placement-invariant (proven across
// the static partitioners since the partitioner abstraction landed),
// relocating a vertex between barriers never changes run output — only the
// local/remote traffic split and therefore the simulated communication
// time.
//
// Determinism across failure: the observation matrix is deliberately
// volatile — cleared at every checkpoint save and restore in addition to
// window starts. Saves happen at fixed superstep numbers, so the matrix
// content at any barrier is a pure function of the superstep schedule, and
// a run rolled back to a checkpoint replays the exact same migration
// decisions the original execution made after that checkpoint.

// DefaultMaxMoves bounds how many vertices one repartition decision may
// relocate when RepartitionPolicy.MaxMoves is zero.
const DefaultMaxMoves = 64

// RepartitionPolicy enables and tunes live vertex migration for a run.
type RepartitionPolicy struct {
	// Every is the decision cadence: at every barrier where the completed
	// superstep count is a positive multiple of Every, the solver proposes
	// and commits migrations. Must be positive.
	Every int
	// Window is how many trailing supersteps of traffic feed each decision.
	// Zero means Every (observe continuously); values above Every are
	// clamped to Every — a window cannot span a migration decision, so
	// every decision sees only traffic generated under the placement it is
	// about to revise.
	Window int
	// MaxMoves caps the vertices relocated per decision. Zero means
	// DefaultMaxMoves; migration cost scales with it, so the cap is what
	// keeps each decision's charged transfer bounded.
	MaxMoves int
}

// withDefaults returns the normalized policy the engine runs with.
func (p RepartitionPolicy) withDefaults() RepartitionPolicy {
	if p.Window <= 0 || p.Window > p.Every {
		p.Window = p.Every
	}
	if p.MaxMoves <= 0 {
		p.MaxMoves = DefaultMaxMoves
	}
	return p
}

// validate rejects nonsensical policies early (see Config.Validate).
func (p RepartitionPolicy) validate() error {
	if p.Every <= 0 {
		return fmt.Errorf("pregel: Repartition.Every must be positive, got %d", p.Every)
	}
	if p.Window < 0 {
		return fmt.Errorf("pregel: Repartition.Window must not be negative, got %d", p.Window)
	}
	if p.MaxMoves < 0 {
		return fmt.Errorf("pregel: Repartition.MaxMoves must not be negative, got %d", p.MaxMoves)
	}
	return nil
}

// routingTable is one immutable generation of placement overrides: vertex
// IDs that no longer live where the base partitioner would put them. Tables
// are replaced wholesale (copy-on-write behind an atomic pointer), never
// mutated, so Assign can read them lock-free from every worker goroutine.
type routingTable struct {
	version uint64
	workers int
	moved   map[VertexID]int32
}

// DynamicPartitioner layers a versioned routing table over a base
// partitioner. With an empty table it places exactly like its base — which
// is why an adaptive run that never migrates is byte-identical to a static
// one — and each committed migration installs a new table generation that
// every subsequent placement decision consults. The table is bound to the
// worker count it was built for; under any other count every ID falls back
// to the base, so a table can never misplace across worker-count changes.
//
// Checkpoints persist the table (PPCK v7) and Name() reports the base
// inside the adaptive wrapper, so resuming an adaptive run under a static
// partitioner — or vice versa — fails the existing placement-identity check
// by name instead of scattering state.
type DynamicPartitioner struct {
	base Partitioner
	tab  atomic.Pointer[routingTable]
}

// AsDynamic wraps base in a DynamicPartitioner with an empty routing table.
// A base that is already dynamic is returned unchanged, so config layers
// can wrap defensively without stacking tables. Nil wraps the hash default.
func AsDynamic(base Partitioner) *DynamicPartitioner {
	if d, ok := base.(*DynamicPartitioner); ok {
		return d
	}
	if base == nil {
		base = HashPartitioner{}
	}
	return &DynamicPartitioner{base: base}
}

// BasePartitioner unwraps a DynamicPartitioner to the static strategy
// underneath; every other partitioner is returned unchanged. Callers that
// type-switch on concrete strategies (e.g. the assembler's affinity
// placement hook) unwrap through here so wrapping stays transparent.
func BasePartitioner(p Partitioner) Partitioner {
	if d, ok := p.(*DynamicPartitioner); ok {
		return d.base
	}
	return p
}

// Name implements Partitioner. The name is constant for the lifetime of a
// run regardless of table generation — checkpoint identity must not change
// as migrations commit — while still distinguishing adaptive from static
// placement of the same base.
func (d *DynamicPartitioner) Name() string { return "adaptive(" + d.base.Name() + ")" }

// Base returns the wrapped static strategy.
func (d *DynamicPartitioner) Base() Partitioner { return d.base }

// Assign implements Partitioner: the routing table wins for IDs it covers
// (under the worker count it was built for); everything else is base
// placement.
func (d *DynamicPartitioner) Assign(id VertexID, workers int) int {
	if t := d.tab.Load(); t != nil && t.workers == workers {
		if w, ok := t.moved[id]; ok {
			return int(w)
		}
	}
	return d.base.Assign(id, workers)
}

// Version returns the routing-table generation (0 = never migrated).
func (d *DynamicPartitioner) Version() uint64 {
	if t := d.tab.Load(); t != nil {
		return t.version
	}
	return 0
}

// Overrides returns how many vertex IDs the table currently re-places.
func (d *DynamicPartitioner) Overrides() int {
	if t := d.tab.Load(); t != nil {
		return len(t.moved)
	}
	return 0
}

// Reset drops every override, reverting to pure base placement. Only call
// between runs.
func (d *DynamicPartitioner) Reset() { d.tab.Store(nil) }

// install merges newly committed moves into the table as a fresh
// generation. Entries that now agree with base placement are dropped — a
// vertex migrated home again needs no override — so the table stays an
// exception list, not a full placement map.
func (d *DynamicPartitioner) install(moves map[VertexID]int32, workers int) {
	old := d.tab.Load()
	size := len(moves)
	version := uint64(1)
	if old != nil {
		size += len(old.moved)
		version = old.version + 1
	}
	merged := make(map[VertexID]int32, size)
	if old != nil && old.workers == workers {
		for id, w := range old.moved {
			merged[id] = w
		}
	}
	for id, w := range moves {
		merged[id] = w
	}
	for id, w := range merged {
		if d.base.Assign(id, workers) == int(w) {
			delete(merged, id)
		}
	}
	d.tab.Store(&routingTable{version: version, workers: workers, moved: merged})
}

// routingBytes encodes the current table for the checkpoint header. An
// empty table (or none) encodes to nil, which decodes back to "no
// overrides" — so static checkpoints and never-migrated adaptive ones carry
// zero routing payload.
func (d *DynamicPartitioner) routingBytes() []byte {
	return appendRoutingTable(nil, d.tab.Load())
}

// installBytes replaces the table wholesale with a decoded checkpoint
// payload — the restore-side twin of routingBytes. Empty data clears the
// table.
func (d *DynamicPartitioner) installBytes(data []byte, workers int) error {
	t, err := decodeRoutingTable(data)
	if err != nil {
		return err
	}
	if t != nil && len(t.moved) > 0 && t.workers != workers {
		return fmt.Errorf("pregel: checkpoint routing table was built for %d workers, this run has %d", t.workers, workers)
	}
	d.tab.Store(t)
	return nil
}

// appendRoutingTable encodes t: uvarint version, uvarint workers, uvarint
// entry count, then (delta-encoded ascending vertex ID, uvarint worker)
// pairs. Sorted entries make equal tables encode to equal bytes, which the
// resume byte-identity tests rely on. A nil or empty table appends nothing.
func appendRoutingTable(buf []byte, t *routingTable) []byte {
	if t == nil || len(t.moved) == 0 {
		return buf
	}
	buf = AppendUvarint(buf, t.version)
	buf = AppendUvarint(buf, uint64(t.workers))
	buf = AppendUvarint(buf, uint64(len(t.moved)))
	ids := make([]VertexID, 0, len(t.moved))
	for id := range t.moved {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	prev := uint64(0)
	for _, id := range ids {
		buf = AppendUvarint(buf, uint64(id)-prev)
		prev = uint64(id)
		buf = AppendUvarint(buf, uint64(t.moved[id]))
	}
	return buf
}

// decodeRoutingTable inverts appendRoutingTable. Empty input decodes to a
// nil table (no overrides); malformed input is ErrCheckpointCorrupt, so
// corruption-aware recovery treats a damaged routing block like any other
// damaged checkpoint region.
func decodeRoutingTable(data []byte) (*routingTable, error) {
	if len(data) == 0 {
		return nil, nil
	}
	version, data, err := ConsumeUvarint(data)
	if err != nil {
		return nil, err
	}
	uw, data, err := ConsumeUvarint(data)
	if err != nil {
		return nil, err
	}
	n, data, err := ConsumeUvarint(data)
	if err != nil {
		return nil, err
	}
	// The encoder emits nothing for an empty table, so a present header
	// with zero entries is not a canonical encoding.
	if n == 0 {
		return nil, corruptf("pregel: corrupt routing table: header with no entries")
	}
	// Every entry costs at least two bytes (ID delta + worker), so a count
	// beyond the bytes on hand is corruption; checked before the sized make.
	if n > uint64(len(data)) {
		return nil, corruptf("pregel: corrupt routing table: %d entries in %d bytes", n, len(data))
	}
	if uw > uint64(1)<<31 {
		return nil, corruptf("pregel: corrupt routing table: worker count %d out of range", uw)
	}
	workers := int(uw)
	t := &routingTable{version: version, workers: workers, moved: make(map[VertexID]int32, n)}
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		var d, w uint64
		if d, data, err = ConsumeUvarint(data); err != nil {
			return nil, err
		}
		if i > 0 && d == 0 {
			return nil, corruptf("pregel: corrupt routing table: duplicate vertex ID %d", prev)
		}
		prev += d
		if w, data, err = ConsumeUvarint(data); err != nil {
			return nil, err
		}
		if w >= uint64(workers) {
			return nil, corruptf("pregel: corrupt routing table: entry places vertex %d on worker %d of %d", prev, w, workers)
		}
		t.moved[VertexID(prev)] = int32(w)
	}
	if len(data) != 0 {
		return nil, corruptf("pregel: corrupt routing table: %d trailing bytes", len(data))
	}
	return t, nil
}

// graphRouting returns the encoded routing table when the run places
// adaptively, nil otherwise — what saveCheckpoint stores in the v7 header.
func (g *Graph[V, M]) graphRouting() []byte {
	if d, ok := g.cfg.Partitioner.(*DynamicPartitioner); ok {
		return d.routingBytes()
	}
	return nil
}

// restoreRouting installs a checkpoint's routing payload into the run's
// DynamicPartitioner. Static runs never see a non-empty payload here — the
// partitioner-name identity check rejects an adaptive checkpoint before
// restore — so routing bytes under a static partitioner are corruption.
func (g *Graph[V, M]) restoreRouting(data []byte) error {
	if d, ok := g.cfg.Partitioner.(*DynamicPartitioner); ok {
		return d.installBytes(data, g.cfg.Workers)
	}
	if len(data) > 0 {
		return corruptf("pregel: checkpoint carries a routing table but the run's partitioner %q is not adaptive", g.cfg.Partitioner.Name())
	}
	return nil
}

// migEdge is one observed (sender, receiver) vertex pair — a key of the
// per-worker observation matrix.
type migEdge struct{ src, dst VertexID }

// resetTraffic clears every worker's observation matrix. Called at window
// starts, after every checkpoint save and restore (see the determinism
// note at the top of this file), and therefore always before the next
// recorded send indexes it.
func (g *Graph[V, M]) resetTraffic() {
	if g.cfg.Repartition == nil {
		return
	}
	for _, w := range g.workers {
		if w.edges == nil {
			w.edges = make(map[migEdge]int64)
		}
		clear(w.edges)
	}
}

// observeWindow updates the recording gate for the superstep about to
// execute: Send records traffic only during the last Window supersteps
// before each decision boundary, and the matrix is zeroed when a window
// opens.
func (g *Graph[V, M]) observeWindow(step int) {
	pol := g.cfg.Repartition
	if pol == nil {
		return
	}
	phase := step % pol.Every
	for _, w := range g.workers {
		w.observing = phase >= pol.Every-pol.Window
	}
	if phase == pol.Every-pol.Window {
		g.resetTraffic()
	}
}

// repartitionDue reports whether the barrier completing superstep step-1
// (i.e. the loop position right after step was incremented) is a migration
// decision point.
func (g *Graph[V, M]) repartitionDue(step int) bool {
	pol := g.cfg.Repartition
	return pol != nil && step > 0 && step%pol.Every == 0 && g.cfg.Workers > 1
}

// Solver hysteresis: an edge participates in the affinity graph only when
// it carried at least migMinGain messages during the window, and a phase-B
// per-vertex reassignment is proposed only when the dominant remote worker
// carries at least migGainRatio times the vertex's current local traffic
// and at least migMinGain messages more. The ratio suppresses oscillation
// between near-balanced neighborhoods. The floor is one message: a pointer
// in push-based list ranking sends its target one message per round and
// then moves on, so a directed pair that carried a single message in the
// window is the signal, not noise — a higher floor leaves the solver with
// nothing but the hello edges.
const (
	migGainRatio = 2
	migMinGain   = 1
)

// migMove is one planned relocation.
type migMove struct {
	id       VertexID
	from, to int
	idx      int   // vertex index within the source worker
	gain     int64 // observed messages gained local by the move
}

// migEdgeCount is one observed (sender, receiver) vertex pair with its
// message count for the window, the raw affinity-graph edge the solver
// consumes.
type migEdgeCount struct {
	e migEdge
	n int64
}

// planMigration is the solver. The observed (sender, receiver) message
// counts form an affinity graph over vertices; the solver condenses its
// connected components onto single workers:
//
//  1. Components are found by union-find over every edge that cleared the
//     migMinGain noise floor. Condensing a whole component at once is what
//     lets migration beat per-vertex greedy placement on pointer-jumping
//     workloads: after one decision, a vertex's partner at ANY doubling
//     distance is on the same worker, not just its current neighbor.
//  2. Each component whose edges crossed workers during the window moves to
//     the worker already holding most of its members (its plurality home),
//     provided the destination stays under capacity and the move is worth
//     it — members moved must not exceed the cut traffic they localize.
//  3. Components too large for any worker fall back to the greedy
//     put-it-next-to-its-heaviest-neighborhood heuristic of the assembler's
//     static affinity placement (core.AffinityPartitioner), reused online
//     per vertex as the label-propagation seed: each vertex adopts the
//     label (worker) of its dominant traffic partner, with migGainRatio
//     hysteresis so near-balanced pairs don't swap homes every decision.
//
// The plan is capped at maxMoves and capacity-bounded so migration can
// never collapse the cluster onto one worker: a destination may grow to at
// most 25% above the balanced share.
func (g *Graph[V, M]) planMigration(maxMoves int) []migMove {
	W := g.cfg.Workers

	// Gather the affinity edges above the noise floor, deterministically
	// ordered. Self-loops carry no placement information.
	var edges []migEdgeCount
	for _, w := range g.workers {
		for e, n := range w.edges {
			if n >= migMinGain && e.src != e.dst {
				edges = append(edges, migEdgeCount{e, n})
			}
		}
	}
	if len(edges) == 0 {
		return nil
	}
	slices.SortFunc(edges, func(a, b migEdgeCount) int {
		return cmp.Or(cmp.Compare(a.e.src, b.e.src), cmp.Compare(a.e.dst, b.e.dst))
	})

	// Union-find over edge endpoints; the root is always the smallest
	// vertex ID in the set so component identity is deterministic.
	parent := map[VertexID]VertexID{}
	var find func(VertexID) VertexID
	find = func(v VertexID) VertexID {
		p, ok := parent[v]
		if !ok || p == v {
			return v
		}
		r := find(p)
		parent[v] = r
		return r
	}
	union := func(a, b VertexID) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if rb < ra {
			ra, rb = rb, ra
		}
		parent[rb] = ra
	}

	// Locate every endpoint still alive under the current routing table.
	type migLoc struct{ wi, idx int }
	locs := map[VertexID]migLoc{}
	var vertices []VertexID // first-seen order over sorted edges: deterministic
	locate := func(id VertexID) {
		if _, seen := locs[id]; seen {
			return
		}
		wi := g.WorkerOf(id)
		i, ok := g.workers[wi].live(id)
		if !ok {
			return
		}
		locs[id] = migLoc{wi, i}
		vertices = append(vertices, id)
	}
	for _, ec := range edges {
		locate(ec.e.src)
		locate(ec.e.dst)
		if _, ok := locs[ec.e.src]; !ok {
			continue
		}
		if _, ok := locs[ec.e.dst]; !ok {
			continue
		}
		union(ec.e.src, ec.e.dst)
	}

	comp := map[VertexID][]VertexID{}
	var roots []VertexID
	for _, v := range vertices {
		r := find(v)
		if len(comp[r]) == 0 {
			roots = append(roots, r)
		}
		comp[r] = append(comp[r], v)
	}
	// cut[r] is the traffic the component's worker-crossing edges carried:
	// the wire bytes condensing it would have saved this window.
	cut := map[VertexID]int64{}
	for _, ec := range edges {
		ls, oks := locs[ec.e.src]
		ld, okd := locs[ec.e.dst]
		if oks && okd && ls.wi != ld.wi {
			cut[find(ec.e.src)] += ec.n
		}
	}
	// Largest components first: they localize the most traffic per decision
	// and deserve first claim on destination capacity.
	slices.SortFunc(roots, func(a, b VertexID) int {
		return cmp.Or(cmp.Compare(len(comp[b]), len(comp[a])), cmp.Compare(a, b))
	})

	total := 0
	sizes := make([]int, W)
	for wi, w := range g.workers {
		sizes[wi] = w.vertexCount()
		total += sizes[wi]
	}
	capacity := total/W + total/(4*W) + 1

	var moves []migMove
	var overflow []VertexID // members of components no worker could absorb
	for _, r := range roots {
		members := comp[r]
		if cut[r] == 0 {
			continue // already fully local
		}
		presence := make([]int, W)
		for _, v := range members {
			presence[locs[v].wi]++
		}
		target, ok := -1, false
		for wi := 0; wi < W; wi++ {
			if sizes[wi]+(len(members)-presence[wi]) > capacity {
				continue
			}
			// Maximize members already home (fewest moves); break ties
			// toward the least-loaded worker so near-uniform components
			// spread across the cluster instead of piling onto worker 0.
			if !ok || presence[wi] > presence[target] ||
				(presence[wi] == presence[target] && sizes[wi] < sizes[target]) {
				target, ok = wi, true
			}
		}
		if !ok {
			overflow = append(overflow, members...)
			continue
		}
		n := len(members) - presence[target]
		// Worth-it check: moving n vertices must localize at least n
		// observed messages, or the payload outweighs the wire saving.
		if n == 0 || int64(n) > cut[r] || len(moves)+n > maxMoves {
			continue
		}
		for _, v := range members {
			l := locs[v]
			if l.wi == target {
				continue
			}
			moves = append(moves, migMove{id: v, from: l.wi, to: target, idx: l.idx, gain: cut[r] / int64(n)})
			sizes[target]++
			sizes[l.wi]--
		}
	}

	// Phase B: per-vertex greedy for overflow components. Index each
	// vertex's incident edges once, then move it toward its dominant
	// traffic partner's worker when that clearly beats staying put.
	if len(overflow) > 0 {
		incident := map[VertexID][]int{}
		for i, ec := range edges {
			incident[ec.e.src] = append(incident[ec.e.src], i)
			incident[ec.e.dst] = append(incident[ec.e.dst], i)
		}
		row := make([]int64, W)
		for _, v := range overflow {
			if len(moves) >= maxMoves {
				break
			}
			for i := range row {
				row[i] = 0
			}
			for _, ei := range incident[v] {
				other := edges[ei].e.src
				if other == v {
					other = edges[ei].e.dst
				}
				if l, ok := locs[other]; ok {
					row[l.wi] += edges[ei].n
				}
			}
			cur := locs[v].wi
			best := cur
			for wi := 0; wi < W; wi++ {
				if row[wi] > row[best] || (row[wi] == row[best] && wi < best) {
					best = wi
				}
			}
			if best == cur || row[best] < migGainRatio*row[cur] || row[best]-row[cur] < migMinGain {
				continue
			}
			if sizes[best] >= capacity {
				continue
			}
			moves = append(moves, migMove{id: v, from: cur, to: best, idx: locs[v].idx, gain: row[best] - row[cur]})
			sizes[best]++
			sizes[cur]--
		}
	}
	return moves
}

// migrantSection builds the relocation payload for one (from, to) worker
// pair: a temporary partition holding exactly the moved vertices — value,
// active flag, pending inbox — encoded with the same binary worker-section
// codec checkpoints use, so migration exercises a proven byte path and
// works for any checkpointable vertex/message type (gob fallback included).
func (g *Graph[V, M]) migrantSection(moves []migMove, bin bool) ([]byte, error) {
	src := g.workers[moves[0].from]
	n := len(moves)
	tmp := &worker[V, M]{
		ids:    make([]VertexID, n),
		vals:   make([]V, n),
		active: make([]bool, n),
		dead:   make([]bool, n),
		inOff:  make([]int32, n+1),
	}
	for i, m := range moves {
		tmp.ids[i] = m.id
		tmp.vals[i] = src.vals[m.idx]
		tmp.active[i] = src.active[m.idx]
		tmp.inArena = append(tmp.inArena, src.inArena[src.inOff[m.idx]:src.inOff[m.idx+1]]...)
		tmp.inOff[i+1] = int32(len(tmp.inArena))
	}
	return encodeWorkerFull(tmp, bin)
}

// runRepartition executes one migration decision at a barrier: solve,
// transfer, splice, commit. It mutates nothing until every transfer payload
// has arrived and decoded, so a worker lost mid-migration (transport error)
// aborts cleanly and the run rolls back to its checkpoint exactly like a
// lost superstep — the checkpointed routing table still matches the
// checkpointed partitions.
func (g *Graph[V, M]) runRepartition(step int, stats *Stats) error {
	pol := g.cfg.Repartition
	tr := g.cfg.Tracer
	wall0 := nowNs()
	if tr != nil {
		g.emit(telemetry.KindBegin, "solve", "migration", wall0, g.clock.Ns(),
			telemetry.I("step", int64(step)))
	}
	moves := g.planMigration(pol.MaxMoves)
	if tr != nil {
		g.emit(telemetry.KindEnd, "solve", "migration", nowNs(), g.clock.Ns(),
			telemetry.I("moves", int64(len(moves))))
	}
	if len(moves) == 0 {
		return nil
	}

	// Group moves per (from, to) pair in deterministic order and encode
	// each pair's relocation payload.
	type pairKey struct{ from, to int }
	byPair := map[pairKey][]migMove{}
	for _, m := range moves {
		byPair[pairKey{m.from, m.to}] = append(byPair[pairKey{m.from, m.to}], m)
	}
	pairs := make([]pairKey, 0, len(byPair))
	for k := range byPair {
		pairs = append(pairs, k)
	}
	slices.SortFunc(pairs, func(a, b pairKey) int {
		return cmp.Or(cmp.Compare(a.from, b.from), cmp.Compare(a.to, b.to))
	})
	bin := binaryCodecFor[V]() && binaryCodecFor[M]()
	payloads := make([][]byte, len(pairs))
	for i, k := range pairs {
		// Moves arrive gain-ordered; the section codec wants ascending IDs.
		pm := byPair[k]
		slices.SortFunc(pm, func(a, b migMove) int { return cmp.Compare(a.id, b.id) })
		var err error
		if payloads[i], err = g.migrantSection(pm, bin); err != nil {
			return fmt.Errorf("pregel: encoding migration payload %d→%d: %w", k.from, k.to, err)
		}
	}

	wall1 := nowNs()
	if tr != nil {
		g.emit(telemetry.KindBegin, "transfer", "migration", wall1, g.clock.Ns(),
			telemetry.I("step", int64(step)), telemetry.I("vertices", int64(len(moves))))
	}
	// Over a real transport the payloads genuinely travel: each pair's
	// section is shipped to the destination depot and fetched back before
	// anything is spliced. The step key is the superstep about to run;
	// every data lane of that step is sent after this returns, and SendLane
	// overwrites by contract, so the keys cannot collide with the shuffle.
	if g.transportActive() {
		t := g.cfg.Transport
		for i, k := range pairs {
			if err := t.SendLane(step, k.from, k.to, payloads[i]); err != nil {
				return err
			}
		}
		for i, k := range pairs {
			fetched, err := t.RecvLane(step, k.from, k.to)
			if err != nil {
				return err
			}
			payloads[i] = fetched
		}
	}
	sections := make([]*ckptWorker[V, M], len(pairs))
	for i, k := range pairs {
		sec, err := decodeWorkerSection[V, M](payloads[i])
		if err != nil {
			return fmt.Errorf("pregel: decoding migration payload %d→%d: %w", k.from, k.to, err)
		}
		sections[i] = sec
	}

	// Point of no return: splice the migrants out of their source workers
	// and into their destinations, then publish the new routing generation.
	// Each sender ships its sections in parallel; the decision's transfer
	// cost is the busiest outgoing link, same as a shuffle round.
	totalBytes := int64(0)
	workerBytes := make([]float64, g.cfg.Workers)
	for i, k := range pairs {
		b := int64(len(payloads[i]))
		totalBytes += b
		workerBytes[k.from] += float64(b)
	}
	perPair := make([][]migMove, len(pairs))
	for i, k := range pairs {
		perPair[i] = byPair[k]
	}
	g.spliceMigrants(perPair, sections)
	routes := make(map[VertexID]int32, len(moves))
	for _, m := range moves {
		routes[m.id] = int32(m.to)
	}
	g.cfg.Partitioner.(*DynamicPartitioner).install(routes, g.cfg.Workers)

	maxBytes := 0.0
	for _, b := range workerBytes {
		if b > maxBytes {
			maxBytes = b
		}
	}
	g.clock.ChargeMigration(maxBytes)
	g.clock.CountMigration(int64(len(moves)), totalBytes)
	stats.Migrations++
	stats.MigratedVertices += int64(len(moves))
	stats.MigrationBytes += totalBytes
	if g.cfg.Metrics != nil {
		g.cfg.Metrics.Counter("pregel_migrations_total").Add(1)
		g.cfg.Metrics.Counter("pregel_migrated_vertices_total").Add(int64(len(moves)))
		g.cfg.Metrics.Counter("pregel_migration_bytes_total").Add(totalBytes)
	}
	if tr != nil {
		g.emit(telemetry.KindEnd, "transfer", "migration", nowNs(), g.clock.Ns(),
			telemetry.I("vertices", int64(len(moves))), telemetry.I("bytes", totalBytes))
	}
	return nil
}

// spliceMigrants rebuilds every worker touched by a committed migration:
// moved vertices leave their source partition and the decoded sections
// merge into their destinations, preserving sorted-by-ID order and carrying
// each vertex's pending inbox. Untouched workers keep their arrays (and
// their zero-allocation steady state) unchanged.
func (g *Graph[V, M]) spliceMigrants(perPair [][]migMove, sections []*ckptWorker[V, M]) {
	leaving := make(map[int]map[int]bool) // worker -> vertex indices moving out
	arriving := make(map[int][]*ckptWorker[V, M])
	for i, pm := range perPair {
		from, to := pm[0].from, pm[0].to
		if leaving[from] == nil {
			leaving[from] = map[int]bool{}
		}
		for _, m := range pm {
			leaving[from][m.idx] = true
		}
		arriving[to] = append(arriving[to], sections[i])
	}
	touched := map[int]bool{}
	for w := range leaving {
		touched[w] = true
	}
	for w := range arriving {
		touched[w] = true
	}
	for wi := range g.workers {
		if !touched[wi] {
			continue
		}
		w := g.workers[wi]
		out := leaving[wi]
		type rec struct {
			id     VertexID
			val    V
			active bool
			dead   bool
			msgs   []M
		}
		recs := make([]rec, 0, len(w.ids))
		for i, id := range w.ids {
			if out[i] {
				continue
			}
			recs = append(recs, rec{id, w.vals[i], w.active[i], w.dead[i], w.inArena[w.inOff[i]:w.inOff[i+1]]})
		}
		for _, sec := range arriving[wi] {
			for i, id := range sec.IDs {
				recs = append(recs, rec{id, sec.Vals[i], sec.Active[i], false, sec.InArena[sec.InOff[i]:sec.InOff[i+1]]})
			}
		}
		slices.SortFunc(recs, func(a, b rec) int { return cmp.Compare(a.id, b.id) })
		n := len(recs)
		ids := make([]VertexID, n)
		vals := make([]V, n)
		active := make([]bool, n)
		dead := make([]bool, n)
		inOff := make([]int32, n+1)
		arena := make([]M, 0, len(w.inArena))
		nDead := 0
		for i, r := range recs {
			ids[i] = r.id
			vals[i] = r.val
			active[i] = r.active
			dead[i] = r.dead
			if r.dead {
				nDead++
			}
			arena = append(arena, r.msgs...)
			inOff[i+1] = int32(len(arena))
		}
		w.ids, w.vals, w.active, w.dead, w.nDead = ids, vals, active, dead, nDead
		w.idx.rebuild(w.ids, n)
		w.inArena, w.inOff = arena, inOff
		w.inCur = growTo(w.inCur, n)
		if w.dirty != nil {
			// The relocation invalidates per-index dirty tracking; the next
			// save is forced full (Run clears haveFull), so just resize.
			w.dirty = growTo(w.dirty, n)
			clear(w.dirty)
		}
	}
}
