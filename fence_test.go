package bench

import (
	"testing"

	"ppaassembler/internal/core"
	"ppaassembler/internal/genome"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/readsim"
	"ppaassembler/internal/scaffold"
	"ppaassembler/internal/workflow"
)

// The engine-shuffle workload of internal/pregel.BenchmarkShuffle: a
// message-heavy Pregel job whose per-superstep traffic dominates compute.
const (
	shuffleVertices   = 20_000
	shuffleFanout     = 8
	shuffleSupersteps = 6
	shuffleWorkers    = 4
)

// Ceilings of the fences below: the committed baseline of the former
// benchmark artifact (commit 8584b4f) times 1.25, the regression threshold
// its fence applied. Every gated quantity is deterministic for the fixed
// workloads here.
const fenceSlack = 1.25

// The baseline's row for the standard paired-end assemble+scaffold
// workload under hash placement.
const (
	pipelineRemoteFraction = 0.704993476236769   // remote messages / all messages
	pipelineNetSimSeconds  = 0.10113452976390386 // communication-bound simulated makespan
)

// fanoutCompute is the shuffle workload's compute: every vertex sends
// shuffleFanout messages to scattered vertices each superstep.
func fanoutCompute(ctx *pregel.Context[int64], id pregel.VertexID, val *int64, in []int64) {
	for _, m := range in {
		*val += m
	}
	if ctx.Superstep() >= shuffleSupersteps {
		ctx.VoteToHalt()
		return
	}
	for j := 0; j < shuffleFanout; j++ {
		dst := pregel.VertexID((uint64(id)*2654435761 + uint64(j)*40503 + 7) % shuffleVertices)
		ctx.Send(dst, int64(id)+int64(j))
	}
}

// runShuffle runs one shuffle-workload job under cfg.
func runShuffle(t *testing.T, cfg pregel.Config, compute pregel.Compute[int64, int64]) *pregel.Stats {
	t.Helper()
	cfg.Workers = shuffleWorkers
	g := pregel.NewGraph[int64, int64](cfg)
	for i := 0; i < shuffleVertices; i++ {
		g.AddVertex(pregel.VertexID(i), 0)
	}
	st, err := g.Run(compute)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func remoteFraction(local, remote int64) float64 {
	return float64(remote) / float64(local+remote)
}

// benchGenomeReads builds the standard paired-end workload of the pipeline
// fences (fixed seeds, deterministic).
func benchGenomeReads(t *testing.T) ([]string, []scaffold.Pair) {
	t.Helper()
	ref, err := genome.Generate(genome.Spec{
		Name: "bench", Length: 30_000, Repeats: 2, RepeatLen: 300, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	simPairs, err := readsim.SimulatePairs(ref, readsim.PairProfile{
		Profile:    readsim.Profile{ReadLen: 100, Coverage: 18, Seed: 42},
		InsertMean: 600, InsertSD: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]scaffold.Pair, len(simPairs))
	for i, p := range simPairs {
		pairs[i] = scaffold.Pair{R1: p.R1, R2: p.R2}
	}
	return readsim.Interleave(simPairs), pairs
}

// assembleScaffold assembles and scaffolds reads and pairs as one plan —
// core.AssemblePlan's ops, then core.ScaffoldOp with lib — and returns the
// final state and the clock the plan charged.
func assembleScaffold(tb testing.TB, opt core.Options, reads []string, pairs []scaffold.Pair, lib scaffold.Options) (*core.State, *pregel.SimClock) {
	tb.Helper()
	asm, err := core.AssemblePlan(opt)
	if err != nil {
		tb.Fatal(err)
	}
	plan := workflow.NewPlan[core.State](core.ArtReads, core.ArtPairs)
	for _, op := range asm.Ops() {
		plan.Then(op)
	}
	plan.Then(core.ScaffoldOp{Lib: lib})
	env := opt.Env(nil)
	st := &core.State{Reads: pregel.ShardSlice(reads, opt.Workers), Pairs: pairs}
	if err := plan.Run(env, st); err != nil {
		tb.Fatal(err)
	}
	return st, env.Clock
}

// runPipeline assembles and scaffolds the standard workload under opt's
// cost model and checkpoint cadence, and returns the clock the run charged.
func runPipeline(t *testing.T, opt core.Options, reads []string, pairs []scaffold.Pair) *pregel.SimClock {
	t.Helper()
	_, clock := assembleScaffold(t, opt, reads, pairs, scaffold.Options{InsertMean: 600, InsertSD: 50})
	return clock
}

// TestDeterministicFences holds the traffic, placement, simulated-network
// and checkpoint gates of the engine on fixed workloads. Each
// gated quantity is deterministic, so the fences hold on any host.
func TestDeterministicFences(t *testing.T) {
	// The schedule must never change the traffic.
	seq := runShuffle(t, pregel.Config{}, fanoutCompute)
	par := runShuffle(t, pregel.Config{Parallel: true}, fanoutCompute)
	if par.LocalMessages != seq.LocalMessages || par.RemoteMessages != seq.RemoteMessages {
		t.Errorf("parallel schedule changed shuffle traffic: %d/%d local/remote, sequential %d/%d",
			par.LocalMessages, par.RemoteMessages, seq.LocalMessages, seq.RemoteMessages)
	}

	// The standard pipeline in the communication-bound regime (compute
	// priced at zero, so the makespan is latency plus the two network
	// tiers): remote fraction and makespan within their ceilings.
	reads, pairs := benchGenomeReads(t)
	cost := pregel.DefaultCost()
	cost.ComputeScale = 1e-12
	opt := core.DefaultOptions(4)
	opt.K, opt.Cost = 21, cost
	clock := runPipeline(t, opt, reads, pairs)
	frac := remoteFraction(clock.LocalMessages(), clock.RemoteMessages())
	net := clock.Seconds()
	t.Logf("pipeline: remote fraction %.4f (ceiling %.4f), net makespan %.4fs (ceiling %.4fs)",
		frac, pipelineRemoteFraction*fenceSlack, net, pipelineNetSimSeconds*fenceSlack)
	if frac > pipelineRemoteFraction*fenceSlack {
		t.Errorf("pipeline: remote fraction %.4f above ceiling %.4f", frac, pipelineRemoteFraction*fenceSlack)
	}
	if net > pipelineNetSimSeconds*fenceSlack {
		t.Errorf("pipeline: net makespan %.4fs above ceiling %.4fs", net, pipelineNetSimSeconds*fenceSlack)
	}

	// With a 5-superstep cadence and no faults, the pipeline writes
	// checkpoints and restores none.
	opt = core.DefaultOptions(4)
	opt.K, opt.CheckpointEvery = 21, 5
	clock = runPipeline(t, opt, reads, pairs)
	t.Logf("checkpoint I/O: %d saves (%d bytes), %d restores", clock.CheckpointSaves(), clock.CheckpointBytesWritten(), clock.CheckpointRestores())
	if clock.CheckpointSaves() == 0 || clock.CheckpointBytesWritten() == 0 {
		t.Errorf("fault-free checkpointed pipeline saved nothing: %d saves, %d bytes", clock.CheckpointSaves(), clock.CheckpointBytesWritten())
	}
	if clock.CheckpointRestores() != 0 {
		t.Errorf("fault-free pipeline restored %d checkpoints", clock.CheckpointRestores())
	}
}
