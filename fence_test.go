package bench

import (
	"testing"

	"ppaassembler/internal/core"
	"ppaassembler/internal/genome"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/readsim"
	"ppaassembler/internal/scaffold"
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

// pipelineBaseline is one partitioner's row of that baseline on the
// standard paired-end assemble+scaffold workload.
type pipelineBaseline struct {
	name           string
	remoteFraction float64 // remote messages / all messages
	netSimSeconds  float64 // communication-bound simulated makespan
}

var pipelineBaselines = []pipelineBaseline{
	{"hash", 0.704993476236769, 0.10113452976390386},
	{"range", 0.6409374098555534, 0.11146457814769568},
	{"minimizer", 0.5527388000176567, 0.09480172813287815},
}

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

// ringCompute is the neighbor-exchange variant — every vertex talks to its
// ID neighbors, the engine-level proxy for DBG-edge traffic.
func ringCompute(ctx *pregel.Context[int64], id pregel.VertexID, val *int64, in []int64) {
	for _, m := range in {
		*val += m
	}
	if ctx.Superstep() >= shuffleSupersteps {
		ctx.VoteToHalt()
		return
	}
	for j := 1; j <= shuffleFanout/2; j++ {
		ctx.Send(pregel.VertexID((uint64(id)+uint64(j))%shuffleVertices), int64(id))
		ctx.Send(pregel.VertexID((uint64(id)+shuffleVertices-uint64(j))%shuffleVertices), int64(id))
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

// runPipeline assembles and scaffolds the standard workload on 4 workers
// under opt's partitioner, cost model and checkpoint cadence.
func runPipeline(t *testing.T, opt core.Options, reads []string, pairs []scaffold.Pair) *core.Result {
	t.Helper()
	res, err := core.Assemble(pregel.ShardSlice(reads, opt.Workers), opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.ScaffoldContigs(res, opt, pairs, scaffold.Options{InsertMean: 600, InsertSD: 50}); err != nil {
		t.Fatal(err)
	}
	return res
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

	// On the ring workload range placement leaves only span-boundary
	// traffic on the wire. The workload's IDs are dense in [0, vertices),
	// so a 15-bit range covers them.
	hashRing := runShuffle(t, pregel.Config{Partitioner: pregel.HashPartitioner{}}, ringCompute)
	rangeRing := runShuffle(t, pregel.Config{Partitioner: pregel.RangePartitioner{Bits: 15}}, ringCompute)
	hf := remoteFraction(hashRing.LocalMessages, hashRing.RemoteMessages)
	rf := remoteFraction(rangeRing.LocalMessages, rangeRing.RemoteMessages)
	t.Logf("ring shuffle remote fraction: hash %.4f, range %.4f", hf, rf)
	if rf >= hf/2 {
		t.Errorf("ring shuffle: range remote fraction %.4f not below half of hash's %.4f", rf, hf)
	}

	// The standard pipeline per partitioner, in the communication-bound
	// regime (compute priced at zero, so the makespan is latency plus the
	// two network tiers): remote fraction and makespan within their
	// ceilings, and minimizer placement below hash scatter on both.
	reads, pairs := benchGenomeReads(t)
	cost := pregel.DefaultCost()
	cost.ComputeScale = 1e-12
	frac, net := map[string]float64{}, map[string]float64{}
	for _, b := range pipelineBaselines {
		opt := core.DefaultOptions(4)
		opt.K, opt.Cost = 21, cost
		part, err := core.MakePartitioner(b.name, opt.K)
		if err != nil {
			t.Fatal(err)
		}
		opt.Partitioner = part
		res := runPipeline(t, opt, reads, pairs)
		frac[b.name] = remoteFraction(res.LocalMessages, res.RemoteMessages)
		net[b.name] = res.SimSeconds
		t.Logf("pipeline %-9s: remote fraction %.4f (ceiling %.4f), net makespan %.4fs (ceiling %.4fs)",
			b.name, frac[b.name], b.remoteFraction*fenceSlack, net[b.name], b.netSimSeconds*fenceSlack)
		if frac[b.name] > b.remoteFraction*fenceSlack {
			t.Errorf("pipeline %s: remote fraction %.4f above ceiling %.4f", b.name, frac[b.name], b.remoteFraction*fenceSlack)
		}
		if net[b.name] > b.netSimSeconds*fenceSlack {
			t.Errorf("pipeline %s: net makespan %.4fs above ceiling %.4fs", b.name, net[b.name], b.netSimSeconds*fenceSlack)
		}
	}
	if frac["minimizer"] >= frac["hash"]*0.95 {
		t.Errorf("pipeline: minimizer remote fraction %.4f not at least 5%% below hash's %.4f", frac["minimizer"], frac["hash"])
	}
	if net["minimizer"] >= net["hash"] {
		t.Errorf("pipeline: minimizer net makespan %.4fs not below hash's %.4fs", net["minimizer"], net["hash"])
	}

	// With a 5-superstep cadence and no faults, the pipeline writes
	// checkpoints and restores none.
	opt := core.DefaultOptions(4)
	opt.K, opt.CheckpointEvery = 21, 5
	res := runPipeline(t, opt, reads, pairs)
	t.Logf("checkpoint I/O: %d saves (%d bytes), %d restores", res.CheckpointSaves, res.CheckpointBytesWritten, res.CheckpointRestores)
	if res.CheckpointSaves == 0 || res.CheckpointBytesWritten == 0 {
		t.Errorf("fault-free checkpointed pipeline saved nothing: %d saves, %d bytes", res.CheckpointSaves, res.CheckpointBytesWritten)
	}
	if res.CheckpointRestores != 0 {
		t.Errorf("fault-free pipeline restored %d checkpoints", res.CheckpointRestores)
	}
}
