package pregel

import "time"

// CostModel parameterizes the simulated distributed cluster. The paper ran
// on 16 machines with Gigabit Ethernet; this reproduction runs W logical
// workers on one host and charges each superstep its critical path
//
//	λ  +  max_w(compute_w)  +  max_w(bytes_w)/B  +  serial_w
//
// where λ is the per-superstep synchronization latency (barrier + round
// trips), compute_w the measured CPU time of worker w's partition, B the
// per-link bandwidth, and serial_w any explicitly charged serial section
// (used by the ABySS-style baseline's packet-collection stage, which is what
// makes it insensitive to worker count, as observed in the paper's §V).
//
// PPA constraints 1–3 (balanced linear work per superstep) are what make
// max_w(compute_w) ≈ total/W, so scaling curves emerge from measurement
// rather than from assumed speedups.
type CostModel struct {
	// SuperstepLatency is λ, charged once per superstep/shuffle round.
	SuperstepLatency time.Duration
	// BytesPerSecond is the per-worker link bandwidth B for inter-machine
	// (remote) traffic: messages whose source and destination vertices
	// live on different workers.
	BytesPerSecond float64
	// LocalBytesPerSecond is the intra-machine tier: messages between
	// vertices on the same worker never touch the wire and are charged at
	// this (memory-copy) bandwidth instead. Zero means
	// DefaultLocalBytesPerSecond. Without this split no placement strategy
	// can ever beat random: every message costs the same regardless of
	// locality.
	LocalBytesPerSecond float64
	// ComputeScale multiplies measured compute time (1.0 = as measured).
	// It lets experiments model slower per-node CPUs if desired.
	ComputeScale float64

	// CheckpointBytesPerSecond is the per-worker bandwidth to the
	// distributed file system used for checkpoint writes and recovery
	// reads. Checkpoints are written by all workers in parallel, so one
	// checkpoint costs CheckpointLatency plus the largest partition
	// divided by this bandwidth. Zero means BytesPerSecond (checkpoint
	// traffic shares the network links).
	CheckpointBytesPerSecond float64
	// CheckpointLatency is the fixed cost of one checkpoint or recovery
	// round (barrier, DFS metadata round trips, failure detection). Zero
	// means SuperstepLatency.
	CheckpointLatency time.Duration
}

// DefaultLocalBytesPerSecond is the default intra-machine bandwidth: a
// conservative single-channel memory-copy rate (8 GiB/s), roughly 70x the
// default Gigabit wire. Local delivery is cheap but not free — the copy
// into the destination inbox still happens.
const DefaultLocalBytesPerSecond = 8 << 30

// DefaultCost returns a model resembling the paper's testbed: Gigabit
// Ethernet (~117 MiB/s per link) between machines, memory-copy bandwidth
// within one, and a 1 ms superstep barrier.
func DefaultCost() CostModel {
	return CostModel{
		SuperstepLatency:    time.Millisecond,
		BytesPerSecond:      117 * 1024 * 1024,
		LocalBytesPerSecond: DefaultLocalBytesPerSecond,
		ComputeScale:        1.0,
	}
}

// SimClock accumulates simulated wall-clock time for one pipeline run. The
// Pregel engine and the mini-MapReduce shuffle both charge it; baselines
// charge their own stages through the same interface so end-to-end times
// are comparable.
type SimClock struct {
	model CostModel
	ns    float64
	// Cluster-wide traffic counters, folded in by the engine and the mini-
	// MapReduce shuffle via CountMessages. They count traffic as executed:
	// supersteps replayed after a simulated crash recount, and a resumed
	// process counts only post-resume traffic (per-run Stats restore their
	// counters from the checkpoint instead).
	localMsgs, remoteMsgs int64
	// Cluster-wide checkpoint I/O counters, folded in by the engine via
	// CountCheckpointSave/CountCheckpointRestore. Like the traffic counters
	// they count I/O as executed, so a pipeline-level report can read total
	// checkpoint traffic off the one shared clock.
	ckptSaves, ckptRestores         int64
	ckptBytesWritten, ckptBytesRead int64
}

// NewSimClock returns a clock at time zero.
func NewSimClock(m CostModel) *SimClock {
	if m == (CostModel{}) {
		m = DefaultCost()
	}
	if m.ComputeScale == 0 {
		m.ComputeScale = 1
	}
	if m.BytesPerSecond == 0 {
		m.BytesPerSecond = DefaultCost().BytesPerSecond
	}
	if m.LocalBytesPerSecond == 0 {
		m.LocalBytesPerSecond = DefaultLocalBytesPerSecond
	}
	if m.CheckpointBytesPerSecond == 0 {
		m.CheckpointBytesPerSecond = m.BytesPerSecond
	}
	if m.CheckpointLatency == 0 {
		m.CheckpointLatency = m.SuperstepLatency
	}
	return &SimClock{model: m}
}

// Model returns the clock's cost model.
func (c *SimClock) Model() CostModel { return c.model }

// ChargeSuperstep charges one BSP superstep: barrier latency plus the
// slowest worker's compute plus the most-loaded link's transfer time. All
// bytes are priced at the inter-machine tier; callers that distinguish
// local traffic use ChargeSuperstepTiered.
func (c *SimClock) ChargeSuperstep(computeNs, bytesPerWorker []float64) {
	c.ChargeSuperstepTiered(computeNs, bytesPerWorker, nil)
}

// ChargeSuperstepTiered charges one BSP superstep with the network split
// into its two tiers: remoteBytes travels the wire at BytesPerSecond,
// localBytes stays intra-machine at LocalBytesPerSecond. Each tier's
// critical path is its most-loaded worker; a nil localBytes charges no
// local traffic.
func (c *SimClock) ChargeSuperstepTiered(computeNs, remoteBytes, localBytes []float64) {
	maxC, maxR, maxL := 0.0, 0.0, 0.0
	for _, v := range computeNs {
		if v > maxC {
			maxC = v
		}
	}
	for _, v := range remoteBytes {
		if v > maxR {
			maxR = v
		}
	}
	for _, v := range localBytes {
		if v > maxL {
			maxL = v
		}
	}
	c.ns += float64(c.model.SuperstepLatency.Nanoseconds())
	c.ns += maxC * c.model.ComputeScale
	c.ns += maxR / c.model.BytesPerSecond * 1e9
	c.ns += maxL / c.model.LocalBytesPerSecond * 1e9
}

// CountMessages folds one shuffle round's traffic into the clock's
// cluster-wide counters, which is how a whole pipeline's remote-message
// fraction is read off one shared clock.
func (c *SimClock) CountMessages(local, remote int64) {
	c.localMsgs += local
	c.remoteMsgs += remote
}

// LocalMessages returns the intra-machine messages counted so far.
func (c *SimClock) LocalMessages() int64 { return c.localMsgs }

// RemoteMessages returns the inter-machine messages counted so far.
func (c *SimClock) RemoteMessages() int64 { return c.remoteMsgs }

// CountCheckpointSave folds one checkpoint write (total bytes across all
// worker partitions) into the clock's I/O counters.
func (c *SimClock) CountCheckpointSave(bytes int64) {
	c.ckptSaves++
	c.ckptBytesWritten += bytes
}

// CountCheckpointRestore folds one checkpoint restore into the counters.
func (c *SimClock) CountCheckpointRestore(bytes int64) {
	c.ckptRestores++
	c.ckptBytesRead += bytes
}

// CheckpointSaves returns the checkpoint writes counted so far.
func (c *SimClock) CheckpointSaves() int64 { return c.ckptSaves }

// CheckpointRestores returns the checkpoint restores counted so far.
func (c *SimClock) CheckpointRestores() int64 { return c.ckptRestores }

// CheckpointBytesWritten returns total checkpoint bytes written so far.
func (c *SimClock) CheckpointBytesWritten() int64 { return c.ckptBytesWritten }

// CheckpointBytesRestored returns total checkpoint bytes re-read so far.
func (c *SimClock) CheckpointBytesRestored() int64 { return c.ckptBytesRead }

// ChargeSerial charges a section that runs on a single node regardless of
// worker count (e.g. a coordinator stage).
func (c *SimClock) ChargeSerial(computeNs float64) {
	c.ns += computeNs * c.model.ComputeScale
}

// ChargeTransfer charges moving the given number of bytes over one link.
func (c *SimClock) ChargeTransfer(bytes float64) {
	c.ns += bytes / c.model.BytesPerSecond * 1e9
}

// ChargeCheckpoint charges writing one checkpoint to the distributed file
// system: every worker persists its partition concurrently, so the critical
// path is the fixed checkpoint latency plus the largest partition's
// transfer.
func (c *SimClock) ChargeCheckpoint(maxWorkerBytes float64) {
	c.ns += float64(c.model.CheckpointLatency.Nanoseconds())
	c.ns += maxWorkerBytes / c.model.CheckpointBytesPerSecond * 1e9
}

// ChargeRecovery charges one recovery event: failure detection and
// coordination, plus re-reading the largest checkpoint partition — the
// read mirror of ChargeCheckpoint's write, priced identically. The
// replayed supersteps then charge themselves as they re-execute, so a
// recovered run's simulated time includes the full price of the failure.
func (c *SimClock) ChargeRecovery(maxWorkerBytes float64) {
	c.ChargeCheckpoint(maxWorkerBytes)
}

// advanceTo moves the clock forward to at least ns. Restoring a checkpoint
// uses it so that a resumed process starts at the checkpoint-time reading,
// while an in-process recovery (whose clock is already past it) is
// unaffected — the clock never rewinds.
func (c *SimClock) advanceTo(ns float64) {
	if ns > c.ns {
		c.ns = ns
	}
}

// Seconds returns the simulated time elapsed so far.
func (c *SimClock) Seconds() float64 { return c.ns / 1e9 }

// Ns returns the simulated time elapsed so far in nanoseconds — the reading
// telemetry events stamp into their SimNs field.
func (c *SimClock) Ns() float64 { return c.ns }

// SuperstepParts decomposes one superstep's charge into its three critical-
// path components — barrier latency, slowest-worker compute, and the
// network transfer (both tiers) — without charging anything. The tracer
// uses it to synthesize sub-phase boundaries on the simulated timeline; the
// actual charge still goes through the single ChargeSuperstepTiered call,
// so instrumented and uninstrumented runs accumulate bit-identical clocks.
func (c *SimClock) SuperstepParts(computeNs, remoteBytes, localBytes []float64) (latencyNs, compNs, netNs float64) {
	maxC, maxR, maxL := 0.0, 0.0, 0.0
	for _, v := range computeNs {
		if v > maxC {
			maxC = v
		}
	}
	for _, v := range remoteBytes {
		if v > maxR {
			maxR = v
		}
	}
	for _, v := range localBytes {
		if v > maxL {
			maxL = v
		}
	}
	latencyNs = float64(c.model.SuperstepLatency.Nanoseconds())
	compNs = maxC * c.model.ComputeScale
	netNs = maxR/c.model.BytesPerSecond*1e9 + maxL/c.model.LocalBytesPerSecond*1e9
	return latencyNs, compNs, netNs
}

// Reset rewinds the clock to zero and clears the traffic and checkpoint
// counters.
func (c *SimClock) Reset() {
	c.ns, c.localMsgs, c.remoteMsgs = 0, 0, 0
	c.ckptSaves, c.ckptRestores, c.ckptBytesWritten, c.ckptBytesRead = 0, 0, 0, 0
}

// nowNs is the engine's monotonic time source.
func nowNs() int64 { return time.Now().UnixNano() }

// Stats summarizes one Run (or one MapReduce) for reporting; Tables II/III
// of the paper are printed directly from these fields.
type Stats struct {
	Name       string
	Workers    int
	Supersteps int
	Messages   int64
	// LocalMessages and RemoteMessages split Messages by network tier:
	// local messages stayed on their worker, remote ones crossed the
	// simulated wire. The split — unlike the total — depends on the
	// configured Partitioner, which is exactly what makes placement
	// strategies comparable.
	LocalMessages   int64
	RemoteMessages  int64
	Bytes           int64
	DroppedMessages int64
	// Recoveries counts worker failures this run rolled back from. The
	// other counters are restored to their checkpoint values on rollback,
	// so a recovered run reports the same Supersteps/Messages/Bytes as an
	// unfailed one; only Recoveries and SimSeconds reveal the failure.
	Recoveries int
	// Checkpoint I/O performed by this run, as executed: saves (and their
	// total bytes across worker partitions) and restores (rollbacks plus
	// Resume fast-forwards). Unlike the message counters these are not
	// rewound on rollback — the I/O genuinely happened — so they are how a
	// report shows what fault tolerance cost.
	CheckpointSaves         int
	CheckpointRestores      int
	CheckpointBytesWritten  int64
	CheckpointBytesRestored int64
	// CheckpointDeltaSaves counts the subset of CheckpointSaves that were
	// incremental (Config.DeltaCheckpoints); saves minus delta-saves is the
	// number of full snapshots taken.
	CheckpointDeltaSaves int
	// SimSeconds is the simulated clock reading when the run finished
	// (cumulative across jobs sharing the clock).
	SimSeconds float64
}

// Add folds other into s (for aggregating multi-job pipelines).
func (s *Stats) Add(other *Stats) {
	s.Supersteps += other.Supersteps
	s.Messages += other.Messages
	s.LocalMessages += other.LocalMessages
	s.RemoteMessages += other.RemoteMessages
	s.Bytes += other.Bytes
	s.DroppedMessages += other.DroppedMessages
	s.Recoveries += other.Recoveries
	s.CheckpointSaves += other.CheckpointSaves
	s.CheckpointRestores += other.CheckpointRestores
	s.CheckpointBytesWritten += other.CheckpointBytesWritten
	s.CheckpointBytesRestored += other.CheckpointBytesRestored
	s.CheckpointDeltaSaves += other.CheckpointDeltaSaves
	if other.SimSeconds > s.SimSeconds {
		s.SimSeconds = other.SimSeconds
	}
}
