package pregel

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// chainCompute is a pointer-chasing job designed for delta checkpoints:
// exactly one vertex computes per superstep (vertex 0 starts a token that
// hops down the chain), so the dirty fraction per checkpoint is tiny and
// the engine's delta-vs-full heuristic picks deltas.
func chainCompute(n int) Compute[int64, int64] {
	return func(ctx *Context[int64], id VertexID, v *int64, msgs []int64) {
		if ctx.Superstep() == 0 {
			if id == 0 {
				ctx.Send(1, 7)
			}
			ctx.VoteToHalt()
			return
		}
		for _, m := range msgs {
			*v += m + int64(ctx.Superstep())
		}
		if next := uint64(id) + 1; len(msgs) > 0 && next < uint64(n) {
			ctx.Send(VertexID(next), *v)
		}
		ctx.VoteToHalt()
	}
}

func buildChainGraph(cfg Config, n int) *Graph[int64, int64] {
	g := NewGraph[int64, int64](cfg)
	for i := 0; i < n; i++ {
		g.AddVertex(VertexID(i), int64(i))
	}
	return g
}

func collectChain(g *Graph[int64, int64]) map[VertexID]int64 {
	out := map[VertexID]int64{}
	g.ForEach(func(id VertexID, v *int64) { out[id] = *v })
	return out
}

// TestDeltaCheckpointCrashMatrix crashes a delta-checkpointed run at every
// BSP round: recovery replays the full+delta chain and must reproduce the
// unfailed run exactly. The chain job keeps the dirty fraction low so the
// heuristic genuinely picks incremental saves (asserted via stats).
func TestDeltaCheckpointCrashMatrix(t *testing.T) {
	const n = 40
	for _, workers := range []int{1, 4, 7} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			probe := NewFaultPlan()
			base := buildChainGraph(Config{Workers: workers, Parallel: workers > 1, Faults: probe}, n)
			baseStats, err := base.Run(chainCompute(n), WithName("delta"))
			if err != nil {
				t.Fatal(err)
			}
			want := collectChain(base)

			// Unfailed delta-checkpointed run: same answer, and the delta
			// path must actually be exercised.
			clean := buildChainGraph(Config{
				Workers: workers, Parallel: workers > 1,
				CheckpointEvery: 2, DeltaCheckpoints: true,
			}, n)
			cleanStats, err := clean.Run(chainCompute(n), WithName("delta"))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(collectChain(clean), want) {
				t.Fatal("delta-checkpointed run diverged from plain run")
			}
			if cleanStats.CheckpointDeltaSaves == 0 {
				t.Fatalf("no delta saves recorded in %d checkpoint saves; the delta path was never exercised",
					cleanStats.CheckpointSaves)
			}
			if cleanStats.CheckpointDeltaSaves >= cleanStats.CheckpointSaves {
				t.Fatalf("%d delta saves out of %d total; expected periodic full snapshots in between",
					cleanStats.CheckpointDeltaSaves, cleanStats.CheckpointSaves)
			}

			for failAt := 0; failAt < probe.Rounds(); failAt++ {
				g := buildChainGraph(Config{
					Workers: workers, Parallel: workers > 1,
					CheckpointEvery: 2, DeltaCheckpoints: true,
					Faults: NewFaultPlan(Fault{Round: failAt, Worker: failAt}),
				}, n)
				stats, err := g.Run(chainCompute(n), WithName("delta"))
				if err != nil {
					t.Fatalf("fail@%d: %v", failAt, err)
				}
				if stats.Recoveries != 1 {
					t.Fatalf("fail@%d: %d recoveries, want 1", failAt, stats.Recoveries)
				}
				if got := collectChain(g); !reflect.DeepEqual(got, want) {
					t.Errorf("fail@%d: recovery from delta chain diverged from unfailed run", failAt)
				}
				sameRunStats(t, fmt.Sprintf("fail@%d", failAt), baseStats, stats)
			}
		})
	}
}

// TestDeltaDirCheckpointerResume: delta checkpoints round-trip through the
// directory store — .dckpt files land on disk next to the full .ckpt
// snapshots, and a restarted process resumes from the chain tip.
func TestDeltaDirCheckpointerResume(t *testing.T) {
	const n = 40
	dir := t.TempDir()
	store1, err := NewDirCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	g1 := buildChainGraph(Config{
		Workers: 4, Parallel: true,
		CheckpointEvery: 2, DeltaCheckpoints: true, Checkpointer: store1,
	}, n)
	var calls1 atomic.Int64
	stats1, err := g1.Run(func(ctx *Context[int64], id VertexID, v *int64, msgs []int64) {
		calls1.Add(1)
		chainCompute(n)(ctx, id, v, msgs)
	}, WithName("dresume"))
	if err != nil {
		t.Fatal(err)
	}
	if stats1.CheckpointDeltaSaves == 0 {
		t.Fatal("no delta saves in the original run")
	}
	want := collectChain(g1)

	fulls, _ := filepath.Glob(filepath.Join(dir, "dresume@*.ckpt"))
	deltas, _ := filepath.Glob(filepath.Join(dir, "dresume@*.dckpt"))
	if len(fulls) == 0 || len(deltas) == 0 {
		t.Fatalf("expected both full and delta checkpoint files on disk, got %d .ckpt / %d .dckpt", len(fulls), len(deltas))
	}

	store2, err := NewDirCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	g2 := buildChainGraph(Config{
		Workers: 4, Parallel: true,
		CheckpointEvery: 2, DeltaCheckpoints: true, Checkpointer: store2, Resume: true,
	}, n)
	var calls2 atomic.Int64
	stats2, err := g2.Run(func(ctx *Context[int64], id VertexID, v *int64, msgs []int64) {
		calls2.Add(1)
		chainCompute(n)(ctx, id, v, msgs)
	}, WithName("dresume"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(collectChain(g2), want) {
		t.Error("resume from a delta chain produced different vertex values")
	}
	if calls2.Load() >= calls1.Load() {
		t.Errorf("resume did not fast-forward: %d compute calls on resume, %d originally", calls2.Load(), calls1.Load())
	}
	if stats2.Supersteps != stats1.Supersteps {
		t.Errorf("resumed run reported %d supersteps, want %d", stats2.Supersteps, stats1.Supersteps)
	}
}

// TestResumeRejectsV1GobCheckpoint: a checkpoint file written by an older
// binary in the v1 gob format must fail the resume loudly, naming the
// format mismatch — not silently recompute or crash with a decode panic.
func TestResumeRejectsV1GobCheckpoint(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(struct{ Step int }{Step: 4}); err != nil {
		t.Fatal(err)
	}
	// The key a fresh store reserves for WithName("v1") is v1@000.
	if err := os.WriteFile(filepath.Join(dir, "v1@000.00000004.ckpt"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	store, err := NewDirCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := buildChainGraph(Config{Workers: 2, CheckpointEvery: 2, Checkpointer: store, Resume: true}, 16)
	_, err = g.Run(chainCompute(16), WithName("v1"))
	if err == nil {
		t.Fatal("resume over a v1 gob checkpoint succeeded")
	}
	if !strings.Contains(err.Error(), "unsupported checkpoint format") {
		t.Errorf("error does not name the unsupported format: %v", err)
	}
}
