package pregel

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// tokenVal is the vertex value of the token-ring job used throughout the
// recovery tests: an accumulating counter plus the last aggregator reading.
type tokenVal struct {
	Acc int64
	Agg int64
}

func (v *tokenVal) AppendCheckpoint(buf []byte) []byte {
	return AppendVarint(AppendVarint(buf, v.Acc), v.Agg)
}

func (v *tokenVal) DecodeCheckpoint(data []byte) (rest []byte, err error) {
	if v.Acc, data, err = ConsumeVarint(data); err != nil {
		return nil, err
	}
	v.Agg, rest, err = ConsumeVarint(data)
	return rest, err
}

// tokenCompute is a deterministic multi-superstep job with messages,
// aggregators and vote-to-halt: each vertex passes an accumulating token
// around a ring for `steps` supersteps, folds received tokens into its
// value, contributes to a sum aggregator, and records the previous
// superstep's aggregate. Every engine feature a checkpoint must capture is
// exercised: vertex values, pending messages, halted flags, aggregators.
func tokenCompute(n int, steps int) Compute[tokenVal, int64] {
	return func(ctx *Context[int64], id VertexID, v *tokenVal, msgs []int64) {
		for _, m := range msgs {
			v.Acc += m
		}
		v.Agg = ctx.PrevAggSum("acc")
		if ctx.Superstep() >= steps {
			ctx.VoteToHalt()
			return
		}
		ctx.AggSum("acc", v.Acc)
		ctx.Send(VertexID((uint64(id)+1)%uint64(n)), v.Acc+int64(ctx.Superstep()))
	}
}

func buildTokenGraph(cfg Config, n int) *Graph[tokenVal, int64] {
	g := NewGraph[tokenVal, int64](cfg)
	for i := 0; i < n; i++ {
		g.AddVertex(VertexID(i), tokenVal{Acc: int64(i) + 1})
	}
	return g
}

// collectVals snapshots every vertex value keyed by ID.
func collectVals(g *Graph[tokenVal, int64]) map[VertexID]tokenVal {
	out := map[VertexID]tokenVal{}
	g.ForEach(func(id VertexID, v *tokenVal) { out[id] = *v })
	return out
}

// sameRunStats compares the deterministic parts of two Stats (everything
// except simulated/wall time and the recovery count, which legitimately
// differ between a failed and an unfailed run).
func sameRunStats(t *testing.T, label string, a, b *Stats) {
	t.Helper()
	if a.Supersteps != b.Supersteps || a.Messages != b.Messages ||
		a.Bytes != b.Bytes || a.DroppedMessages != b.DroppedMessages {
		t.Errorf("%s: stats diverged: got supersteps=%d msgs=%d bytes=%d dropped=%d, want supersteps=%d msgs=%d bytes=%d dropped=%d",
			label, b.Supersteps, b.Messages, b.Bytes, b.DroppedMessages,
			a.Supersteps, a.Messages, a.Bytes, a.DroppedMessages)
	}
}

// TestCheckpointRecoveryIdentical is the single-fault smoke test: crash in
// the middle of the token job, recover from the last checkpoint, and the
// run must finish with exactly the vertex values, aggregates and counters
// of an unfailed run.
func TestCheckpointRecoveryIdentical(t *testing.T) {
	const n, steps = 64, 9
	base := buildTokenGraph(Config{Workers: 4}, n)
	baseStats, err := base.Run(tokenCompute(n, steps), WithName("token"))
	if err != nil {
		t.Fatal(err)
	}
	want := collectVals(base)

	for _, every := range []int{1, 2, 4} {
		g := buildTokenGraph(Config{
			Workers:         4,
			CheckpointEvery: every,
			Faults:          NewFaultPlan(Fault{Round: 5, Worker: 2}),
		}, n)
		stats, err := g.Run(tokenCompute(n, steps), WithName("token"))
		if err != nil {
			t.Fatalf("every=%d: %v", every, err)
		}
		if stats.Recoveries != 1 {
			t.Fatalf("every=%d: expected 1 recovery, got %d", every, stats.Recoveries)
		}
		if got := collectVals(g); !reflect.DeepEqual(got, want) {
			t.Errorf("every=%d: recovered vertex values differ from unfailed run", every)
		}
		sameRunStats(t, "recovered", baseStats, stats)
	}
}

// TestCrashWithoutCheckpointingFails: a fault with CheckpointEvery unset is
// fatal to the run, with a descriptive error.
func TestCrashWithoutCheckpointingFails(t *testing.T) {
	g := buildTokenGraph(Config{Workers: 2, Faults: NewFaultPlan(Fault{Round: 1, Worker: 0})}, 16)
	if _, err := g.Run(tokenCompute(16, 5), WithName("doomed")); err == nil {
		t.Fatal("expected an error when crashing with checkpointing disabled")
	}
}

// TestCrashBeforeFirstCadenceCheckpoint: a fault at round 0 recovers from
// the baseline snapshot taken before superstep 0.
func TestCrashBeforeFirstCadenceCheckpoint(t *testing.T) {
	const n, steps = 32, 6
	base := buildTokenGraph(Config{Workers: 3}, n)
	if _, err := base.Run(tokenCompute(n, steps)); err != nil {
		t.Fatal(err)
	}
	g := buildTokenGraph(Config{
		Workers:         3,
		CheckpointEvery: 4,
		Faults:          NewFaultPlan(Fault{Round: 0, Worker: 1}),
	}, n)
	stats, err := g.Run(tokenCompute(n, steps))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Recoveries != 1 {
		t.Fatalf("expected 1 recovery, got %d", stats.Recoveries)
	}
	if !reflect.DeepEqual(collectVals(g), collectVals(base)) {
		t.Error("recovery from the baseline checkpoint diverged")
	}
}

// TestMultipleFaultsOneRun: two crashes in one run, including a second
// crash during the replay window of the first, still recover to the
// unfailed result.
func TestMultipleFaultsOneRun(t *testing.T) {
	const n, steps = 48, 10
	base := buildTokenGraph(Config{Workers: 4}, n)
	baseStats, err := base.Run(tokenCompute(n, steps))
	if err != nil {
		t.Fatal(err)
	}
	g := buildTokenGraph(Config{
		Workers:         4,
		CheckpointEvery: 3,
		Faults:          NewFaultPlan(Fault{Round: 4, Worker: 0}, Fault{Round: 6, Worker: 3}),
	}, n)
	stats, err := g.Run(tokenCompute(n, steps))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Recoveries != 2 {
		t.Fatalf("expected 2 recoveries, got %d", stats.Recoveries)
	}
	if !reflect.DeepEqual(collectVals(g), collectVals(base)) {
		t.Error("doubly-recovered run diverged from unfailed run")
	}
	sameRunStats(t, "double-fault", baseStats, stats)
}

// TestDirCheckpointerResume simulates process death and restart: a first
// "process" checkpoints to disk and is killed by an unrecoverable event (we
// just stop after noting its checkpoints exist); a second process re-runs
// the same deterministic job with Resume and must fast-forward — executing
// strictly fewer compute calls — while producing identical output.
func TestDirCheckpointerResume(t *testing.T) {
	const n, steps = 64, 9
	dir := t.TempDir()

	count := func(c Compute[tokenVal, int64], calls *int64) Compute[tokenVal, int64] {
		return func(ctx *Context[int64], id VertexID, v *tokenVal, msgs []int64) {
			*calls++
			c(ctx, id, v, msgs)
		}
	}

	store1, err := NewDirCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	g1 := buildTokenGraph(Config{Workers: 4, CheckpointEvery: 3, Checkpointer: store1}, n)
	var calls1 int64
	if _, err := g1.Run(count(tokenCompute(n, steps), &calls1), WithName("resume")); err != nil {
		t.Fatal(err)
	}
	want := collectVals(g1)

	// "Restarted process": fresh store over the same directory, fresh graph
	// with the same input, Resume on. NextJob re-reserves the same key.
	store2, err := NewDirCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	g2 := buildTokenGraph(Config{Workers: 4, CheckpointEvery: 3, Checkpointer: store2, Resume: true}, n)
	var calls2 int64
	stats2, err := g2.Run(count(tokenCompute(n, steps), &calls2), WithName("resume"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(collectVals(g2), want) {
		t.Error("resumed run produced different vertex values")
	}
	if calls2 >= calls1 {
		t.Errorf("resume did not fast-forward: %d compute calls on resume, %d on the original run", calls2, calls1)
	}
	if stats2.Supersteps != steps+1 {
		t.Errorf("resumed run reported %d supersteps, want the full job's %d", stats2.Supersteps, steps+1)
	}

	// The checkpoint files live where the flag reference says they do.
	matches, err := filepath.Glob(filepath.Join(dir, "resume@*.ckpt"))
	if err != nil || len(matches) == 0 {
		t.Errorf("expected on-disk checkpoint files in %s (err=%v)", dir, err)
	}
}

// TestResumeRejectsMismatchedRun: resuming over checkpoints written for
// different input (or a different worker layout) is an error, not a silent
// replay of stale state.
func TestResumeRejectsMismatchedRun(t *testing.T) {
	const n, steps = 32, 6
	dir := t.TempDir()
	store1, err := NewDirCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	g1 := buildTokenGraph(Config{Workers: 4, CheckpointEvery: 2, Checkpointer: store1}, n)
	if _, err := g1.Run(tokenCompute(n, steps), WithName("fp")); err != nil {
		t.Fatal(err)
	}

	store2, err := NewDirCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	g2 := buildTokenGraph(Config{Workers: 4, CheckpointEvery: 2, Checkpointer: store2, Resume: true}, n)
	g2.AddVertex(VertexID(9999), tokenVal{}) // different input than the checkpointed run
	if _, err := g2.Run(tokenCompute(n, steps), WithName("fp")); err == nil {
		t.Fatal("resume over a different input's checkpoints succeeded")
	}
}

// TestDirCheckpointerSupersedes: the store retains KeepGenerations full
// snapshots (default 2) as recovery fallbacks, deletes anything older, and
// Latest returns the newest.
func TestDirCheckpointerSupersedes(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	job := store.NextJob("x")
	if err := store.Save(job, 3, []byte("aaa")); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(job, 6, []byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(job, 9, []byte("ccccc")); err != nil {
		t.Fatal(err)
	}
	step, data, ok, err := store.Latest(job)
	if err != nil || !ok || step != 9 || string(data) != "ccccc" {
		t.Fatalf("Latest = (%d, %q, %v, %v), want (9, ccccc, true, nil)", step, data, ok, err)
	}
	entries, _ := os.ReadDir(dir)
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(entries) != 2 {
		t.Errorf("expected the two newest generations after supersede, found %d: %v", len(entries), names)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".00000003.") {
			t.Errorf("superseded generation at step 3 not deleted: %v", names)
		}
	}
}

// TestDirCheckpointerKeepOne: KeepGenerations=1 restores the
// keep-only-newest behavior.
func TestDirCheckpointerKeepOne(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirCheckpointerOpts(dir, DirStoreOptions{KeepGenerations: 1})
	if err != nil {
		t.Fatal(err)
	}
	job := store.NextJob("x")
	if err := store.Save(job, 3, []byte("aaa")); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(job, 6, []byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Errorf("expected exactly one checkpoint file with KeepGenerations=1, found %d", len(entries))
	}
}

// TestMapReduceFaultRecovery: crashes during the map phase and during the
// reduce phase recover by lineage task re-execution — priced on the clock
// but never re-invoking the UDFs, which are allowed to accumulate caller-
// owned per-worker state. Output, message counts and UDF-side accumulators
// must all match the unfailed run exactly; simulated time must not.
func TestMapReduceFaultRecovery(t *testing.T) {
	input := ShardSlice([]int{5, 3, 5, 9, 3, 3, 7, 5, 1, 9, 2, 2}, 4)
	run := func(faults *FaultPlan) ([][]string, *Stats, []int64, float64) {
		clock := NewSimClock(CostModel{})
		// reduced mirrors the pipeline's caller-owned per-worker counters
		// (θ-filter totals, merge ordinals): a double-invoked task would
		// double them.
		reduced := make([]int64, 4)
		out, st := MapReduceCfg(clock, MRConfig{Workers: 4, Faults: faults}, input,
			func(w int, item int, emit func(uint64, int)) { emit(uint64(item), 1) },
			Uint64Hash,
			func(a, b uint64) bool { return a < b },
			func(w int, key uint64, vals []int, emit func(string)) {
				reduced[w] += int64(len(vals))
				emit(string(rune('a'+key)) + string(rune('0'+len(vals))))
			})
		return out, st, reduced, clock.Seconds()
	}
	want, wantStats, wantReduced, wantSim := run(nil)
	for name, plan := range map[string]*FaultPlan{
		"map-phase":    NewFaultPlan(Fault{Round: 0, Worker: 2}),
		"reduce-phase": NewFaultPlan(Fault{Round: 1, Worker: 1}),
		"both-phases":  NewFaultPlan(Fault{Round: 0, Worker: 0}, Fault{Round: 1, Worker: 3}),
	} {
		got, gotStats, gotReduced, gotSim := run(plan)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: recovered MapReduce output differs", name)
		}
		if gotStats.Messages != wantStats.Messages {
			t.Errorf("%s: message count %d != %d", name, gotStats.Messages, wantStats.Messages)
		}
		if !reflect.DeepEqual(gotReduced, wantReduced) {
			t.Errorf("%s: caller-owned reduce accumulators %v != unfailed %v (task redo must not double side effects)",
				name, gotReduced, wantReduced)
		}
		if gotStats.Recoveries != plan.FiredCount() || plan.FiredCount() == 0 {
			t.Errorf("%s: recoveries=%d fired=%d", name, gotStats.Recoveries, plan.FiredCount())
		}
		if gotSim <= wantSim {
			t.Errorf("%s: faulted run simulated %.6fs, expected more than unfailed %.6fs", name, gotSim, wantSim)
		}
	}
}

// TestRemoveVertexAndSetValueSurviveRecovery: out-of-run graph edits made
// before a checkpointed job (removals and value overwrites) must persist
// through rollback and replay — a removed vertex must stay removed, an
// overwritten value must replay from its overwritten state.
func TestRemoveVertexAndSetValueSurviveRecovery(t *testing.T) {
	const n, steps = 32, 7
	build := func(faults *FaultPlan) *Graph[tokenVal, int64] {
		cfg := Config{Workers: 4, CheckpointEvery: 2, Faults: faults}
		g := buildTokenGraph(cfg, n)
		// A first job runs to completion, then the graph is edited between
		// jobs, exactly as the assembler edits graphs between operations.
		if _, err := g.Run(tokenCompute(n, 3), WithName("job1")); err != nil {
			t.Fatal(err)
		}
		g.RemoveVertex(VertexID(5))
		g.RemoveVertex(VertexID(17))
		g.SetValue(VertexID(6), tokenVal{Acc: -1000})
		return g
	}

	base := build(nil)
	if _, err := base.Run(tokenCompute(n, steps), WithName("job2")); err != nil {
		t.Fatal(err)
	}
	want := collectVals(base)
	if _, ok := want[VertexID(5)]; ok {
		t.Fatal("sanity: removed vertex still present in baseline")
	}

	// Crash job2 late enough that the rollback replays supersteps in which
	// messages to the removed vertices are dropped.
	g := build(NewFaultPlan(Fault{Round: 9, Worker: 1}))
	stats, err := g.Run(tokenCompute(n, steps), WithName("job2"))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Recoveries != 1 {
		t.Fatalf("expected 1 recovery, got %d (fault may have landed outside job2)", stats.Recoveries)
	}
	got := collectVals(g)
	if _, ok := got[VertexID(5)]; ok {
		t.Error("vertex removed before the job reappeared after recovery")
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("recovered run over the edited graph diverged from unfailed run")
	}
}

// TestRemoveSelfReplaysIdentically: vertices that remove themselves mid-run
// after the last checkpoint are re-removed identically on replay.
func TestRemoveSelfReplaysIdentically(t *testing.T) {
	const n = 40
	compute := func(ctx *Context[int64], id VertexID, v *int64, msgs []int64) {
		for _, m := range msgs {
			*v += m
		}
		if ctx.Superstep() == 4 && uint64(id)%3 == 0 {
			ctx.RemoveSelf()
			return
		}
		if ctx.Superstep() >= 8 {
			ctx.VoteToHalt()
			return
		}
		ctx.Send(VertexID((uint64(id)+1)%n), *v)
	}
	run := func(faults *FaultPlan) map[VertexID]int64 {
		g := NewGraph[int64, int64](Config{Workers: 4, CheckpointEvery: 3, Faults: faults})
		for i := 0; i < n; i++ {
			g.AddVertex(VertexID(i), int64(i))
		}
		if _, err := g.Run(compute, WithName("removeself")); err != nil {
			t.Fatal(err)
		}
		out := map[VertexID]int64{}
		g.ForEach(func(id VertexID, v *int64) { out[id] = *v })
		return out
	}
	want := run(nil)
	// Fault at round 5: vertices self-removed at superstep 4 are gone, the
	// last checkpoint is at superstep 3 — replay must re-remove them.
	got := run(NewFaultPlan(Fault{Round: 5, Worker: 2}))
	if !reflect.DeepEqual(got, want) {
		t.Error("self-removal did not replay identically after recovery")
	}
	if len(got) >= n {
		t.Error("sanity: no vertices were removed")
	}
}

// TestSimClockCheckpointAccounting pins the cost model arithmetic: one
// checkpoint costs CheckpointLatency plus maxWorkerBytes at the checkpoint
// bandwidth; recovery charges the same read path; Reset zeroes the clock.
func TestSimClockCheckpointAccounting(t *testing.T) {
	m := CostModel{
		SuperstepLatency:         time.Millisecond,
		BytesPerSecond:           1 << 30,
		ComputeScale:             1,
		CheckpointBytesPerSecond: 1 << 20, // 1 MiB/s so transfers dominate
		CheckpointLatency:        2 * time.Millisecond,
	}
	c := NewSimClock(m)
	c.ChargeCheckpoint(1 << 20) // 1 MiB at 1 MiB/s = 1 s
	want := 1.0 + 0.002
	if got := c.Seconds(); got < want-1e-9 || got > want+1e-9 {
		t.Errorf("ChargeCheckpoint: clock at %.6fs, want %.6fs", got, want)
	}
	c.ChargeRecovery(2 << 20) // 2 MiB read = 2 s
	want += 2.0 + 0.002
	if got := c.Seconds(); got < want-1e-9 || got > want+1e-9 {
		t.Errorf("ChargeRecovery: clock at %.6fs, want %.6fs", got, want)
	}
	c.Reset()
	if c.Seconds() != 0 {
		t.Errorf("Reset: clock at %v, want 0", c.Seconds())
	}

	// Zero checkpoint fields fall back to the network bandwidth and the
	// superstep latency.
	c2 := NewSimClock(CostModel{SuperstepLatency: time.Millisecond, BytesPerSecond: 1 << 20})
	c2.ChargeCheckpoint(1 << 20)
	want2 := 1.0 + 0.001
	if got := c2.Seconds(); got < want2-1e-9 || got > want2+1e-9 {
		t.Errorf("defaulted checkpoint fields: clock at %.6fs, want %.6fs", got, want2)
	}
}

// TestClockNeverRewindsThroughRecovery observes the shared clock from
// inside the compute function across a faulted run: every reading must be
// >= the previous one even as state rolls back, and checkpoint writes plus
// the recovery read must make the faulted run strictly slower than the
// unfailed checkpointed run.
func TestClockNeverRewindsThroughRecovery(t *testing.T) {
	const n, steps = 32, 8
	run := func(faults *FaultPlan) (*Graph[tokenVal, int64], float64) {
		g := buildTokenGraph(Config{Workers: 4, CheckpointEvery: 2, Faults: faults}, n)
		inner := tokenCompute(n, steps)
		last := 0.0
		compute := func(ctx *Context[int64], id VertexID, v *tokenVal, msgs []int64) {
			if now := g.Clock().Seconds(); now < last {
				t.Fatalf("clock rewound: %.9f after %.9f", now, last)
			} else {
				last = now
			}
			inner(ctx, id, v, msgs)
		}
		if _, err := g.Run(compute, WithName("clock")); err != nil {
			t.Fatal(err)
		}
		return g, g.Clock().Seconds()
	}
	_, noFault := run(nil)
	_, withFault := run(NewFaultPlan(Fault{Round: 5, Worker: 0}))
	if withFault <= noFault {
		t.Errorf("recovered run simulated %.6fs, expected more than the unfailed run's %.6fs (replay + recovery read must cost time)", withFault, noFault)
	}
}

// TestCheckpointChargesClock: the same job with checkpointing enabled
// simulates strictly more time than without — checkpoint writes are not
// free — and tighter cadence costs at least as much as looser cadence.
func TestCheckpointChargesClock(t *testing.T) {
	const n, steps = 32, 8
	sim := func(every int) float64 {
		g := buildTokenGraph(Config{Workers: 4, CheckpointEvery: every}, n)
		if _, err := g.Run(tokenCompute(n, steps)); err != nil {
			t.Fatal(err)
		}
		return g.Clock().Seconds()
	}
	off, loose, tight := sim(0), sim(4), sim(1)
	if loose <= off {
		t.Errorf("checkpointing every 4 steps simulated %.6fs, expected more than uncheckpointed %.6fs", loose, off)
	}
	if tight <= loose {
		t.Errorf("checkpointing every step simulated %.6fs, expected more than every-4 %.6fs", tight, loose)
	}
}
