package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"ppaassembler/internal/core"
	"ppaassembler/internal/genome"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/readsim"
	"ppaassembler/internal/scaffold"
	"ppaassembler/internal/transport"
)

// The engine-shuffle regression workload: a message-heavy Pregel job whose
// per-superstep traffic dominates compute, mirroring
// internal/pregel.BenchmarkShuffle. The emission test below re-runs it via
// testing.Benchmark and writes BENCH_pregel.json so CI archives the perf
// trajectory of the engine's hot path.
const (
	shuffleVertices   = 20_000
	shuffleFanout     = 8
	shuffleSupersteps = 6
	shuffleWorkers    = 4
)

// shuffleBenchmark returns a benchmark function running the canonical
// shuffle workload in the given mode and accumulating total messages plus
// their local/remote tier split.
func shuffleBenchmark(parallel bool, msgs, local, remote *int64) func(b *testing.B) {
	return func(b *testing.B) {
		g := pregel.NewGraph[int64, int64](pregel.Config{Workers: shuffleWorkers, Parallel: parallel})
		for i := 0; i < shuffleVertices; i++ {
			g.AddVertex(pregel.VertexID(i), 0)
		}
		*msgs, *local, *remote = 0, 0, 0 // testing.Benchmark invokes this repeatedly; keep the final run's count
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := g.Run(func(ctx *pregel.Context[int64], id pregel.VertexID, val *int64, in []int64) {
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
			})
			if err != nil {
				b.Fatal(err)
			}
			*msgs += st.Messages
			*local += st.LocalMessages
			*remote += st.RemoteMessages
		}
	}
}

// shuffleResult is one mode's row in BENCH_pregel.json. LocalMsgs and
// RemoteMsgs report the network-tier split of one run's traffic (new
// fields; the pre-existing fields are unchanged for trajectory
// comparability).
type shuffleResult struct {
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	MsgsPerSec  float64 `json:"msgs_per_sec"`
	LocalMsgs   int64   `json:"local_msgs"`
	RemoteMsgs  int64   `json:"remote_msgs"`
}

// benchArtifact is the schema of BENCH_pregel.json.
type benchArtifact struct {
	GeneratedUnix int64 `json:"generated_unix"`
	NumCPU        int   `json:"num_cpu"`
	GoMaxProcs    int   `json:"go_max_procs"`
	Workload      struct {
		Vertices   int `json:"vertices"`
		Fanout     int `json:"fanout"`
		Supersteps int `json:"supersteps"`
		Workers    int `json:"workers"`
	} `json:"workload"`
	Sequential shuffleResult `json:"sequential"`
	Parallel   shuffleResult `json:"parallel"`
	// ParallelSpeedup is sequential ns/op divided by parallel ns/op; > 1
	// means running the workers on all cores wins on this host. Expect ~1
	// on single-core runners (the executor then runs inline) and > 1 from
	// 2 cores up.
	ParallelSpeedup float64 `json:"parallel_speedup"`
	// ParallelSpeedupValid gates interpretation of the speedup: a run with
	// GOMAXPROCS < 2 has no second core to show one on.
	// ParallelSpeedupNote carries the human-readable caveat.
	ParallelSpeedupValid bool   `json:"parallel_speedup_valid"`
	ParallelSpeedupNote  string `json:"parallel_speedup_note,omitempty"`

	// Partitioners benchmarks the engine shuffle on a neighbor-exchange
	// (ring) workload under each placement strategy: same traffic, only
	// the local/remote split — and so the simulated wire load — moves.
	Partitioners []partitionerShuffle `json:"partitioner_shuffle"`
	// Pipeline runs the standard paired-end assemble+scaffold workload
	// under each named partitioner and records its remote-message fraction
	// plus two simulated makespans: the communication-bound regime the
	// paper positions the system in (latency + network only), which is
	// deterministic, and the default measured-compute model, which is
	// host-noisy.
	Pipeline []pipelinePartitioner `json:"pipeline_partitioners"`
	// CheckpointIO reruns the standard pipeline with checkpointing every 5
	// supersteps against the in-memory store and records the checkpoint
	// traffic — the deterministic I/O cost of the fault-tolerance cadence.
	CheckpointIO checkpointIO `json:"checkpoint_io"`
	// CheckpointThroughput measures the binary worker-section codec against
	// the gob fallback on a synthetic worker partition: section sizes and
	// the delta-checkpoint size ratio (gated), encode/decode MB/s and
	// speedups (host timings, reported only).
	CheckpointThroughput pregel.CheckpointCodecStats `json:"checkpoint_throughput"`
	// Transport runs the shuffle workload over the real TCP transport
	// (worker depots on localhost) and compares the measured wire time
	// against what the two-tier CostModel's remote bandwidth predicts for
	// the same byte volume — the simulated cost model checked against an
	// actual network stack.
	Transport transportBench `json:"transport"`
}

// transportBench is the real-wire validation section of the artifact.
type transportBench struct {
	Workers        int   `json:"workers"`
	FramesSent     int64 `json:"frames_sent"`
	FramesReceived int64 `json:"frames_received"`
	BytesSent      int64 `json:"bytes_sent"`
	BytesReceived  int64 `json:"bytes_received"`
	RemoteMessages int64 `json:"remote_messages"`
	// MeasuredWireSeconds is time actually spent inside socket reads and
	// writes (transport.Counters.WireNs).
	MeasuredWireSeconds float64 `json:"measured_wire_seconds"`
	// PredictedWireSeconds prices the same total byte volume at the
	// CostModel's remote-tier bandwidth (DefaultCost().BytesPerSecond).
	PredictedWireSeconds float64 `json:"predicted_wire_seconds"`
	// MeasuredOverPredicted > 1 means the real localhost wire is slower
	// than the modeled 117 MiB/s cluster link, < 1 faster.
	MeasuredOverPredicted float64 `json:"measured_over_predicted"`
}

// checkpointIO is the checkpoint-traffic section of the artifact.
type checkpointIO struct {
	Every         int   `json:"every_supersteps"`
	Saves         int64 `json:"saves"`
	Restores      int64 `json:"restores"`
	BytesWritten  int64 `json:"bytes_written"`
	BytesRestored int64 `json:"bytes_restored"`
}

// partitionerShuffle is one engine-level placement row.
type partitionerShuffle struct {
	Name           string  `json:"name"`
	NsPerOp        int64   `json:"ns_per_op"`
	LocalMsgs      int64   `json:"local_msgs"`
	RemoteMsgs     int64   `json:"remote_msgs"`
	RemoteFraction float64 `json:"remote_fraction"`
}

// pipelinePartitioner is one pipeline-level placement row.
type pipelinePartitioner struct {
	Name           string  `json:"name"`
	LocalMsgs      int64   `json:"local_msgs"`
	RemoteMsgs     int64   `json:"remote_msgs"`
	RemoteFraction float64 `json:"remote_fraction"`
	// NetSimSeconds is the communication-bound simulated makespan
	// (superstep latency + two-tier network, compute zeroed):
	// deterministic, so partitioners are exactly comparable.
	NetSimSeconds float64 `json:"net_sim_seconds"`
	// SimSeconds is the default-model makespan (measured compute included);
	// best of three runs to damp host noise.
	SimSeconds float64 `json:"sim_seconds"`
}

// runShuffleMode measures one mode with testing.Benchmark.
func runShuffleMode(parallel bool) shuffleResult {
	var msgs, local, remote int64
	r := testing.Benchmark(shuffleBenchmark(parallel, &msgs, &local, &remote))
	n := int64(r.N)
	if n == 0 {
		n = 1
	}
	return shuffleResult{
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		MsgsPerSec:  float64(msgs) / r.T.Seconds(),
		LocalMsgs:   local / n,
		RemoteMsgs:  remote / n,
	}
}

// runPartitionerShuffle measures the ring workload — every vertex talks to
// its ID neighbors, the engine-level proxy for DBG-edge traffic — under one
// placement strategy.
func runPartitionerShuffle(name string, part pregel.Partitioner) partitionerShuffle {
	var local, remote int64
	r := testing.Benchmark(func(b *testing.B) {
		g := pregel.NewGraph[int64, int64](pregel.Config{Workers: shuffleWorkers, Partitioner: part})
		for i := 0; i < shuffleVertices; i++ {
			g.AddVertex(pregel.VertexID(i), 0)
		}
		local, remote = 0, 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := g.Run(func(ctx *pregel.Context[int64], id pregel.VertexID, val *int64, in []int64) {
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
			})
			if err != nil {
				b.Fatal(err)
			}
			local, remote = st.LocalMessages, st.RemoteMessages
		}
	})
	row := partitionerShuffle{Name: name, NsPerOp: r.NsPerOp(), LocalMsgs: local, RemoteMsgs: remote}
	if t := local + remote; t > 0 {
		row.RemoteFraction = float64(remote) / float64(t)
	}
	return row
}

// benchGenomeReads builds the standard paired-end workload shared by the
// pipeline rows (fixed seeds, deterministic).
func benchGenomeReads() ([]string, []scaffold.Pair, error) {
	ref, err := genome.Generate(genome.Spec{
		Name: "bench", Length: 30_000, Repeats: 2, RepeatLen: 300, Seed: 41,
	})
	if err != nil {
		return nil, nil, err
	}
	simPairs, err := readsim.SimulatePairs(ref, readsim.PairProfile{
		Profile:    readsim.Profile{ReadLen: 100, Coverage: 18, Seed: 42},
		InsertMean: 600, InsertSD: 50,
	})
	if err != nil {
		return nil, nil, err
	}
	pairs := make([]scaffold.Pair, len(simPairs))
	for i, p := range simPairs {
		pairs[i] = scaffold.Pair{R1: p.R1, R2: p.R2}
	}
	return readsim.Interleave(simPairs), pairs, nil
}

// pipelineRun is one assemble+scaffold measurement: traffic split and
// simulated makespan.
type pipelineRun struct {
	local, remote int64
	simSeconds    float64
}

// runPipelinePartitioner assembles and scaffolds the standard workload
// under one partitioner and cost model.
func runPipelinePartitioner(name string, workers int, cost pregel.CostModel, reads []string, pairs []scaffold.Pair) (pipelineRun, error) {
	opt := core.DefaultOptions(workers)
	opt.K = 21
	opt.Cost = cost
	part, err := core.MakePartitioner(name, opt.K)
	if err != nil {
		return pipelineRun{}, err
	}
	opt.Partitioner = part
	res, err := core.Assemble(pregel.ShardSlice(reads, workers), opt)
	if err != nil {
		return pipelineRun{}, err
	}
	if _, _, err := core.ScaffoldContigs(res, opt, pairs, scaffold.Options{InsertMean: 600, InsertSD: 50}); err != nil {
		return pipelineRun{}, err
	}
	return pipelineRun{
		local: res.LocalMessages, remote: res.RemoteMessages,
		simSeconds: res.SimSeconds,
	}, nil
}

// commBoundCost is the communication-dominated regime the paper positions
// Pregel+ assembly in: superstep latency and the two network tiers priced
// as by DefaultCost, compute zeroed so the comparison is deterministic.
func commBoundCost() pregel.CostModel {
	c := pregel.DefaultCost()
	c.ComputeScale = 1e-12
	return c
}

// runPipelineRows builds the per-partitioner pipeline section.
func runPipelineRows(t *testing.T) []pipelinePartitioner {
	t.Helper()
	reads, pairs, err := benchGenomeReads()
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var rows []pipelinePartitioner
	for _, name := range []string{"hash", "range", "minimizer"} {
		run, err := runPipelinePartitioner(name, workers, commBoundCost(), reads, pairs)
		if err != nil {
			t.Fatal(err)
		}
		best := math.Inf(1)
		for i := 0; i < 3; i++ {
			r, err := runPipelinePartitioner(name, workers, pregel.CostModel{}, reads, pairs)
			if err != nil {
				t.Fatal(err)
			}
			if r.simSeconds < best {
				best = r.simSeconds
			}
		}
		row := pipelinePartitioner{
			Name: name, LocalMsgs: run.local, RemoteMsgs: run.remote,
			NetSimSeconds: run.simSeconds, SimSeconds: best,
		}
		if tot := run.local + run.remote; tot > 0 {
			row.RemoteFraction = float64(run.remote) / float64(tot)
		}
		rows = append(rows, row)
	}
	return rows
}

// runCheckpointIO measures the checkpoint traffic of the standard pipeline
// at the default fault-tolerance cadence (every 5 supersteps, in-memory
// store). The counts and bytes are deterministic for a fixed workload.
func runCheckpointIO(t *testing.T) checkpointIO {
	t.Helper()
	reads, pairs, err := benchGenomeReads()
	if err != nil {
		t.Fatal(err)
	}
	const workers, every = 4, 5
	opt := core.DefaultOptions(workers)
	opt.K = 21
	opt.CheckpointEvery = every
	res, err2 := core.Assemble(pregel.ShardSlice(reads, workers), opt)
	if err2 != nil {
		t.Fatal(err2)
	}
	if _, _, err := core.ScaffoldContigs(res, opt, pairs, scaffold.Options{InsertMean: 600, InsertSD: 50}); err != nil {
		t.Fatal(err)
	}
	return checkpointIO{
		Every:         every,
		Saves:         res.CheckpointSaves,
		Restores:      res.CheckpointRestores,
		BytesWritten:  res.CheckpointBytesWritten,
		BytesRestored: res.CheckpointBytesRestored,
	}
}

// runTransportBench runs the canonical shuffle workload once over the real
// TCP transport against in-process worker depots on localhost, and returns
// the measured-vs-modeled wire comparison.
func runTransportBench(t *testing.T) transportBench {
	t.Helper()
	addrs := make([]string, shuffleWorkers)
	for i := range shuffleWorkers {
		srv := &transport.WorkerServer{Worker: i}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
		go srv.Serve()
		t.Cleanup(func() { srv.Close() })
	}
	tp, err := transport.DialTCP(transport.TCPOptions{Peers: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	g := pregel.NewGraph[int64, int64](pregel.Config{Workers: shuffleWorkers, Parallel: true, Transport: tp})
	for i := 0; i < shuffleVertices; i++ {
		g.AddVertex(pregel.VertexID(i), 0)
	}
	st, err := g.Run(func(ctx *pregel.Context[int64], id pregel.VertexID, val *int64, in []int64) {
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
	})
	if err != nil {
		t.Fatal(err)
	}
	c := tp.Counters()
	row := transportBench{
		Workers:             shuffleWorkers,
		FramesSent:          c.FramesSent,
		FramesReceived:      c.FramesRecv,
		BytesSent:           c.BytesSent,
		BytesReceived:       c.BytesRecv,
		RemoteMessages:      st.RemoteMessages,
		MeasuredWireSeconds: float64(c.WireNs) / 1e9,
	}
	row.PredictedWireSeconds = float64(c.BytesSent+c.BytesRecv) / pregel.DefaultCost().BytesPerSecond
	if row.PredictedWireSeconds > 0 {
		row.MeasuredOverPredicted = row.MeasuredWireSeconds / row.PredictedWireSeconds
	}
	return row
}

// TestEmitPregelBenchArtifact runs the shuffle workload in both modes and
// writes BENCH_pregel.json to the path in $BENCH_PREGEL_JSON. Without the
// variable it skips, so plain `go test ./...` stays fast; CI sets it and
// uploads the artifact:
//
//	BENCH_PREGEL_JSON=BENCH_pregel.json go test -run TestEmitPregelBenchArtifact .
func TestEmitPregelBenchArtifact(t *testing.T) {
	path := os.Getenv("BENCH_PREGEL_JSON")
	if path == "" {
		t.Skip("set BENCH_PREGEL_JSON=<path> to emit the benchmark artifact")
	}
	var a benchArtifact
	a.GeneratedUnix = time.Now().Unix()
	a.NumCPU = runtime.NumCPU()
	a.GoMaxProcs = runtime.GOMAXPROCS(0)
	a.Workload.Vertices = shuffleVertices
	a.Workload.Fanout = shuffleFanout
	a.Workload.Supersteps = shuffleSupersteps
	a.Workload.Workers = shuffleWorkers
	a.Sequential = runShuffleMode(false)
	a.Parallel = runShuffleMode(true)
	if a.Parallel.NsPerOp > 0 {
		a.ParallelSpeedup = float64(a.Sequential.NsPerOp) / float64(a.Parallel.NsPerOp)
	}
	a.ParallelSpeedupValid = a.GoMaxProcs >= 2
	if !a.ParallelSpeedupValid {
		a.ParallelSpeedupNote = fmt.Sprintf(
			"measured with GOMAXPROCS=%d on %d CPU(s): the parallel speedup has no second core to show on and must not be read as an engine regression",
			a.GoMaxProcs, a.NumCPU)
	}
	for _, p := range []struct {
		name string
		part pregel.Partitioner
	}{
		{"hash", pregel.HashPartitioner{}},
		// The shuffle workload's IDs are dense in [0, vertices), so a
		// 15-bit range covers them; the ring traffic then stays almost
		// entirely inside each worker's contiguous span.
		{"range", pregel.RangePartitioner{Bits: 15}},
	} {
		a.Partitioners = append(a.Partitioners, runPartitionerShuffle(p.name, p.part))
	}
	a.Pipeline = runPipelineRows(t)
	a.CheckpointIO = runCheckpointIO(t)
	ct, err := pregel.MeasureCheckpointCodec(50_000, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	a.CheckpointThroughput = ct
	a.Transport = runTransportBench(t)
	out, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: sequential %d ns/op %d allocs/op, parallel %d ns/op %d allocs/op, speedup %.2fx (%d CPUs)",
		path, a.Sequential.NsPerOp, a.Sequential.AllocsPerOp,
		a.Parallel.NsPerOp, a.Parallel.AllocsPerOp, a.ParallelSpeedup, a.NumCPU)

	// Regression gates that hold on any hardware: the arena-based shuffle
	// must stay allocation-light (the pre-arena engine spent ~480k allocs on
	// this workload; the floor guards the ≥50% reduction with huge margin),
	// and parallel mode must not lose badly to sequential when enough cores
	// are present. The speedup threshold sits below 1.0 to absorb scheduler
	// jitter on shared CI runners — a genuine serialization regression shows
	// up far below it, and the artifact records the exact ratio either way.
	if a.Sequential.AllocsPerOp > 240_000 {
		t.Errorf("sequential shuffle allocs/op = %d, want <= 240000 (arena regression)", a.Sequential.AllocsPerOp)
	}
	// The speedup gates only bind when the measurement is valid (the
	// committed artifact from a GOMAXPROCS=1 runner recorded a meaningless
	// ratio; the validity flag exists so that can never recur silently).
	if a.ParallelSpeedupValid && a.GoMaxProcs >= 4 && a.ParallelSpeedup <= 1.0 {
		t.Errorf("parallel shuffle not faster than sequential with GOMAXPROCS=%d (speedup %.2fx)", a.GoMaxProcs, a.ParallelSpeedup)
	}
	if !a.ParallelSpeedupValid {
		t.Logf("NOTE: %s", a.ParallelSpeedupNote)
	}
	// The schedule must never change the traffic.
	if a.Parallel.LocalMsgs != a.Sequential.LocalMsgs || a.Parallel.RemoteMsgs != a.Sequential.RemoteMsgs {
		t.Errorf("parallel schedule changed shuffle traffic: %d/%d local/remote, sequential %d/%d",
			a.Parallel.LocalMsgs, a.Parallel.RemoteMsgs, a.Sequential.LocalMsgs, a.Sequential.RemoteMsgs)
	}

	// Locality gates — all deterministic, so they hold on any hardware: on
	// the ring workload range placement must leave only span-boundary
	// traffic on the wire, and on the standard paired-end pipeline the
	// minimizer placement must cut both the remote-message fraction and
	// the communication-bound simulated makespan below hash scatter.
	rows := map[string]partitionerShuffle{}
	for _, r := range a.Partitioners {
		rows[r.Name] = r
		t.Logf("shuffle %-5s: %d ns/op, remote fraction %.3f", r.Name, r.NsPerOp, r.RemoteFraction)
	}
	if rows["range"].RemoteFraction >= rows["hash"].RemoteFraction/2 {
		t.Errorf("ring shuffle: range remote fraction %.3f not well below hash's %.3f",
			rows["range"].RemoteFraction, rows["hash"].RemoteFraction)
	}
	pipe := map[string]pipelinePartitioner{}
	for _, r := range a.Pipeline {
		pipe[r.Name] = r
		t.Logf("pipeline %-9s: remote fraction %.3f, net makespan %.3fs, full makespan %.3fs",
			r.Name, r.RemoteFraction, r.NetSimSeconds, r.SimSeconds)
	}
	if pipe["minimizer"].RemoteFraction >= pipe["hash"].RemoteFraction*0.95 {
		t.Errorf("pipeline: minimizer remote fraction %.3f not at least 5%% below hash's %.3f",
			pipe["minimizer"].RemoteFraction, pipe["hash"].RemoteFraction)
	}
	if pipe["minimizer"].NetSimSeconds >= pipe["hash"].NetSimSeconds {
		t.Errorf("pipeline: minimizer communication-bound makespan %.4fs not below hash's %.4fs",
			pipe["minimizer"].NetSimSeconds, pipe["hash"].NetSimSeconds)
	}

	// Checkpoint gate: with a 5-superstep cadence and no faults, the
	// standard pipeline must actually write checkpoints and restore none.
	t.Logf("checkpoint I/O: %d saves (%d bytes), %d restores (%d bytes)",
		a.CheckpointIO.Saves, a.CheckpointIO.BytesWritten,
		a.CheckpointIO.Restores, a.CheckpointIO.BytesRestored)
	if a.CheckpointIO.Saves == 0 || a.CheckpointIO.BytesWritten == 0 {
		t.Errorf("checkpoint I/O section empty: saves=%d bytes=%d",
			a.CheckpointIO.Saves, a.CheckpointIO.BytesWritten)
	}
	if a.CheckpointIO.Restores != 0 {
		t.Errorf("fault-free run restored %d checkpoints", a.CheckpointIO.Restores)
	}

	// Transport gate: the shuffle workload over real TCP must have moved
	// real traffic and metered real wire time; the measured/predicted ratio
	// itself is recorded, not gated — it is a property of the host's
	// loopback stack, not of the engine.
	tb := a.Transport
	t.Logf("transport: %d workers, %d frames / %d bytes sent, wire %.3fs measured vs %.3fs modeled (%.2fx)",
		tb.Workers, tb.FramesSent, tb.BytesSent, tb.MeasuredWireSeconds, tb.PredictedWireSeconds, tb.MeasuredOverPredicted)
	if tb.FramesSent == 0 || tb.BytesSent == 0 || tb.BytesReceived == 0 {
		t.Errorf("transport section recorded no traffic: %+v", tb)
	}
	if tb.MeasuredWireSeconds <= 0 || tb.RemoteMessages == 0 {
		t.Errorf("transport section recorded no wire time or remote messages: %+v", tb)
	}

	// Codec gates, on sizes only (the speedups over gob are host timings,
	// recorded but not gated): a 5%-dirty delta must be a small fraction of
	// a full snapshot, and a binary snapshot smaller than a gob one.
	t.Logf("checkpoint codec: binary %.0f/%.0f MB/s enc/dec, gob %.0f/%.0f MB/s, speedup %.2fx/%.2fx, delta ratio %.3f",
		ct.BinEncodeMBps, ct.BinDecodeMBps, ct.GobEncodeMBps, ct.GobDecodeMBps,
		ct.EncodeSpeedup, ct.DecodeSpeedup, ct.DeltaRatio)
	if ct.DeltaRatio >= 0.5 {
		t.Errorf("delta checkpoint at %.0f%% dirty is %.2fx the full snapshot; expected well under half",
			100*ct.DirtyFraction, ct.DeltaRatio)
	}
	if ct.FullBytes >= ct.GobBytes {
		t.Errorf("binary full snapshot (%d bytes) not smaller than gob (%d bytes)", ct.FullBytes, ct.GobBytes)
	}
}
