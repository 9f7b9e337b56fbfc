package pregel

import (
	"fmt"
	"strings"
	"testing"
)

// TestHashPartitionerMatchesLegacy: the default partitioner must reproduce
// the engine's historical hashID-modulo placement bit for bit, so existing
// runs, checkpoints and goldens are unchanged by the abstraction.
func TestHashPartitionerMatchesLegacy(t *testing.T) {
	p := HashPartitioner{}
	for _, workers := range []int{1, 3, 4, 7} {
		for id := uint64(0); id < 10_000; id += 37 {
			want := int(hashID(VertexID(id)) % uint64(workers))
			if got := p.Assign(VertexID(id), workers); got != want {
				t.Fatalf("workers=%d id=%d: Assign=%d, legacy=%d", workers, id, got, want)
			}
		}
	}
}

// mapPartitioner places the IDs it lists on their worker and hashes the
// rest: an arbitrary learned placement, for the tests that hold the engine
// invariant under any placement. Entries must be below the worker count.
type mapPartitioner map[VertexID]int

func (mapPartitioner) Name() string { return "map" }

func (p mapPartitioner) Assign(id VertexID, workers int) int {
	if w, ok := p[id]; ok {
		return w
	}
	return HashPartitioner{}.Assign(id, workers)
}

// partSumCompute is a commutative message-sum compute used by the placement
// tests: every vertex accumulates incoming payloads and forwards its ID to
// a fixed successor ring for a few supersteps.
func partSumCompute(n int, rounds int) Compute[int64, int64] {
	return func(ctx *Context[int64], id VertexID, val *int64, msgs []int64) {
		for _, m := range msgs {
			*val += m
		}
		if ctx.Superstep() >= rounds {
			ctx.VoteToHalt()
			return
		}
		ctx.Send(VertexID((uint64(id)+1)%uint64(n)), int64(id)+1)
		ctx.Send(VertexID((uint64(id)+7)%uint64(n)), 1)
	}
}

// runPlacement executes the ring workload under one partitioner and returns
// final vertex values plus run stats.
func runPlacement(t *testing.T, part Partitioner, workers int, parallel bool) (map[VertexID]int64, *Stats) {
	t.Helper()
	const n = 512
	g := NewGraph[int64, int64](Config{Workers: workers, Parallel: parallel, Partitioner: part})
	for i := 0; i < n; i++ {
		g.AddVertex(VertexID(i), 0)
	}
	st, err := g.Run(partSumCompute(n, 4), WithName("placement"))
	if err != nil {
		t.Fatal(err)
	}
	vals := map[VertexID]int64{}
	g.ForEach(func(id VertexID, v *int64) { vals[id] = *v })
	return vals, st
}

// TestPlacementInvariance: vertex states and message totals are identical
// under every partitioner; only the local/remote split moves. The ring
// workload has contiguous-span locality, so block placement must beat hash
// on remote fraction.
func TestPlacementInvariance(t *testing.T) {
	baseVals, baseStats := runPlacement(t, HashPartitioner{}, 4, false)
	blocks := mapPartitioner{}
	for i := 0; i < 512; i++ {
		blocks[VertexID(i)] = i * 4 / 512
	}
	for _, tc := range []struct {
		name string
		part Partitioner
	}{
		{"map", blocks},
	} {
		for _, parallel := range []bool{false, true} {
			vals, st := runPlacement(t, tc.part, 4, parallel)
			if len(vals) != len(baseVals) {
				t.Fatalf("%s parallel=%v: %d vertices, want %d", tc.name, parallel, len(vals), len(baseVals))
			}
			for id, v := range baseVals {
				if vals[id] != v {
					t.Fatalf("%s parallel=%v: vertex %d = %d, want %d", tc.name, parallel, id, vals[id], v)
				}
			}
			if st.Messages != baseStats.Messages || st.Supersteps != baseStats.Supersteps {
				t.Errorf("%s parallel=%v: stats (msgs=%d steps=%d) != hash (msgs=%d steps=%d)",
					tc.name, parallel, st.Messages, st.Supersteps, baseStats.Messages, baseStats.Supersteps)
			}
			if st.LocalMessages+st.RemoteMessages != st.Messages {
				t.Errorf("%s parallel=%v: local %d + remote %d != total %d",
					tc.name, parallel, st.LocalMessages, st.RemoteMessages, st.Messages)
			}
			if st.RemoteMessages >= baseStats.RemoteMessages {
				t.Errorf("%s parallel=%v: remote messages %d did not drop below hash's %d",
					tc.name, parallel, st.RemoteMessages, baseStats.RemoteMessages)
			}
		}
	}
}

// runGuardJob runs a checkpointed job over a fresh DirCheckpointer on dir,
// which restarts the job-key sequence exactly like a killed-and-restarted
// process.
func runGuardJob(t *testing.T, dir string, part Partitioner, resume bool) error {
	t.Helper()
	store, err := NewDirCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGraph[int64, int64](Config{
		Workers: 4, Partitioner: part,
		CheckpointEvery: 2, Checkpointer: store, Resume: resume,
	})
	for i := 0; i < 64; i++ {
		g.AddVertex(VertexID(i), 0)
	}
	_, err = g.Run(partSumCompute(64, 4), WithName("guard"))
	return err
}

// TestCheckpointPartitionerGuard: resuming a checkpointed job under a
// different partitioner must fail with an error naming both strategies —
// before the generic fingerprint check gets a chance to obscure the cause.
func TestCheckpointPartitionerGuard(t *testing.T) {
	dir := t.TempDir()
	if err := runGuardJob(t, dir, modPartitioner{}, false); err != nil {
		t.Fatal(err)
	}
	err := runGuardJob(t, dir, HashPartitioner{}, true)
	if err == nil {
		t.Fatal("resume under a different partitioner succeeded")
	}
	for _, want := range []string{`partitioner "mod"`, `"hash"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

// retiredPartitioner stands in for a deleted placement strategy: only its
// name reaches a checkpoint header.
type retiredPartitioner string

func (p retiredPartitioner) Name() string { return string(p) }
func (retiredPartitioner) Assign(id VertexID, workers int) int {
	return modPartitioner{}.Assign(id, workers)
}

// TestResumeRefusesRangeCheckpoint: a checkpoint written under a partitioner
// that no longer exists (range, minimizer) cannot be resumed; the error
// names the strategy the checkpoint recorded.
func TestResumeRefusesRangeCheckpoint(t *testing.T) {
	for _, name := range []string{"range", "minimizer"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := runGuardJob(t, dir, retiredPartitioner(name), false); err != nil {
				t.Fatal(err)
			}
			err := runGuardJob(t, dir, HashPartitioner{}, true)
			if want := fmt.Sprintf("partitioner %q", name); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("want an error naming %s, got %v", want, err)
			}
		})
	}
}

// TestCheckpointWorkerCountGuard: the snapshot header also pins the worker
// count, with an error that says so explicitly.
func TestCheckpointWorkerCountGuard(t *testing.T) {
	dir := t.TempDir()
	run := func(workers int, resume bool) error {
		store, err := NewDirCheckpointer(dir)
		if err != nil {
			t.Fatal(err)
		}
		g := NewGraph[int64, int64](Config{
			Workers:         workers,
			CheckpointEvery: 2, Checkpointer: store, Resume: resume,
		})
		for i := 0; i < 64; i++ {
			g.AddVertex(VertexID(i), 0)
		}
		_, err = g.Run(partSumCompute(64, 4), WithName("guard"))
		return err
	}
	if err := run(4, false); err != nil {
		t.Fatal(err)
	}
	err := run(3, true)
	if err == nil {
		t.Fatal("resume under a different worker count succeeded")
	}
	if !strings.Contains(err.Error(), "4 workers") || !strings.Contains(err.Error(), "has 3") {
		t.Errorf("error %q does not name both worker counts", err)
	}
}

// TestStatsLocalRemoteSurviveRecovery: a crash-recovered run restores its
// tier counters from the checkpoint and finishes with the same split as an
// unfailed run.
func TestStatsLocalRemoteSurviveRecovery(t *testing.T) {
	clean, _ := func() (*Stats, error) {
		g := NewGraph[int64, int64](Config{Workers: 4, Partitioner: modPartitioner{}, CheckpointEvery: 2})
		for i := 0; i < 512; i++ {
			g.AddVertex(VertexID(i), 0)
		}
		return g.Run(partSumCompute(512, 6), WithName("clean"))
	}()
	faults, err := ParseFaultPlan("3:1")
	if err != nil {
		t.Fatal(err)
	}
	g := NewGraph[int64, int64](Config{
		Workers: 4, Partitioner: modPartitioner{},
		CheckpointEvery: 2, Faults: faults,
	})
	for i := 0; i < 512; i++ {
		g.AddVertex(VertexID(i), 0)
	}
	recovered, err := g.Run(partSumCompute(512, 6), WithName("recovered"))
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Recoveries != 1 {
		t.Fatalf("expected 1 recovery, got %d", recovered.Recoveries)
	}
	if recovered.LocalMessages != clean.LocalMessages || recovered.RemoteMessages != clean.RemoteMessages {
		t.Errorf("recovered split local=%d remote=%d != clean local=%d remote=%d",
			recovered.LocalMessages, recovered.RemoteMessages, clean.LocalMessages, clean.RemoteMessages)
	}
}
