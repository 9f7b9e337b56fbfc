package pregel

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"ppaassembler/internal/telemetry"
)

// Checkpointer persists superstep checkpoints, the engine's Pregel-style
// fault-tolerance mechanism: every Config.CheckpointEvery supersteps each
// worker snapshots its partition — vertex values, halted flags, the pending
// inbox arena — together with the aggregator state and run counters, and on
// a (simulated or real) worker failure the run rolls back to the latest
// checkpoint and replays. Because the engine is deterministic, the replayed
// run is bit-identical to an unfailed one.
//
// Job keys are reserved with NextJob in run-start order; a deterministic
// pipeline therefore re-acquires the same keys when re-executed, which is
// what lets a killed process resume from an on-disk store (Config.Resume).
//
// Implementations must be safe for concurrent use: independent graphs may
// share one store.
//
// Ownership: Save takes an artifact as parts, whose
// concatenation is the artifact, and the store takes ownership of them —
// the caller never touches a part again, so a store may keep or write the
// parts as they are instead of copying them into one blob. Every artifact
// a store returns is the concatenation it was given.
type Checkpointer interface {
	// NextJob reserves the next job key for a run labeled name.
	NextJob(name string) string
	// Save durably records the checkpoint for the given job and superstep,
	// replacing any earlier checkpoint of the same job.
	Save(job string, step int, parts ...[]byte) error
	// Latest returns the most recent checkpoint saved for job, or ok=false
	// when none exists.
	Latest(job string) (step int, data []byte, ok bool, err error)
}

// jobTracker is the engine-side guard against checkpoint-key collisions: a
// store that implements it records every key an actual run reserved, and a
// second reservation of the same key within the same store instance fails
// the run loudly. Two jobs silently sharing a key would overwrite each
// other's checkpoints and corrupt Resume, so the built-in stores both
// implement it; custom Checkpointer implementations opt in by embedding
// one of them.
type jobTracker interface {
	trackJob(job string) error
}

// jobSet is the shared reservation registry of the built-in stores.
type jobSet struct {
	mu       sync.Mutex
	reserved map[string]bool
}

func (s *jobSet) trackJob(job string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.reserved == nil {
		s.reserved = map[string]bool{}
	}
	if s.reserved[job] {
		return fmt.Errorf("pregel: job key %q reserved twice in one run; duplicate keys would overwrite each other's checkpoints and corrupt Resume (is the store's NextJob not unique?)", job)
	}
	s.reserved[job] = true
	return nil
}

// ckptBlobRef is one stored artifact handed to the corruption-aware
// restore path: the raw bytes (or the read error), plus enough identity to
// report the artifact in a warning.
type ckptBlobRef struct {
	data []byte
	src  string // artifact name for diagnostics (file base name, or a mem: key)
	err  error  // read failure, resolved by loadCheckpoint like corrupt bytes
}

// snapshotReleaser is a store that drops a job's snapshot on request. The
// engine asks before it encodes the job's next snapshot, so the save does
// not hold two, and once the job has finished. Faults fire only at the top
// of a superstep, so no rollback falls between the release and the save.
// Only the in-memory store releases: a directory's generations are what a
// killed process resumes from.
type snapshotReleaser interface {
	releaseSnapshot(job string)
}

// releaseSnapshot drops the run's snapshot if the store releases.
func (ck *ckptRun) releaseSnapshot() {
	if r, ok := ck.store.(snapshotReleaser); ok {
		r.releaseSnapshot(ck.job)
	}
}

// generationSource is the store hook behind corruption-aware recovery:
// instead of only the newest snapshot (Latest), it exposes every
// generation the store still holds, newest first, so a restore can walk
// back past a corrupt artifact to the last intact snapshot. Both built-in
// stores implement it; custom stores without it keep the strict behavior
// (any decode failure aborts the run).
type generationSource interface {
	ckptGenerations(job string) ([]ckptBlobRef, error)
}

// MemCheckpointer keeps checkpoints in process memory: the natural store
// for simulated-failure experiments and tests, where recovery happens
// within one process. It keeps the parts it is given as they are and joins
// them only when an artifact is read back, which only a restore does. The
// engine releases a job's snapshot before saving the next one and when the
// job finishes (snapshotReleaser), so the store holds at most one snapshot
// per running job and none for a finished one.
type MemCheckpointer struct {
	jobSet
	mu   sync.Mutex
	seq  int
	data map[string]memCkpt
}

type memCkpt struct {
	step  int
	parts [][]byte
}

func (c memCkpt) blob() []byte { return bytes.Join(c.parts, nil) }

// NewMemCheckpointer returns an empty in-memory store.
func NewMemCheckpointer() *MemCheckpointer {
	return &MemCheckpointer{data: map[string]memCkpt{}}
}

// NextJob implements Checkpointer.
func (m *MemCheckpointer) NextJob(name string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	job := jobKey(name, m.seq)
	m.seq++
	return job
}

// Save implements Checkpointer. A save supersedes the job's previous
// snapshot.
func (m *MemCheckpointer) Save(job string, step int, parts ...[]byte) error {
	m.mu.Lock()
	m.data[job] = memCkpt{step: step, parts: parts}
	m.mu.Unlock()
	return nil
}

// Latest implements Checkpointer.
func (m *MemCheckpointer) Latest(job string) (int, []byte, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.data[job]
	if !ok {
		return 0, nil, false, nil
	}
	return c.step, c.blob(), true, nil
}

// releaseSnapshot implements snapshotReleaser.
func (m *MemCheckpointer) releaseSnapshot(job string) {
	m.mu.Lock()
	delete(m.data, job)
	m.mu.Unlock()
}

// ckptGenerations implements generationSource. The in-memory store keeps
// a single generation, so there is exactly one candidate (or none).
func (m *MemCheckpointer) ckptGenerations(job string) ([]ckptBlobRef, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.data[job]
	if !ok {
		return nil, nil
	}
	return []ckptBlobRef{{data: c.blob(), src: fmt.Sprintf("mem:%s@%08d", job, c.step)}}, nil
}

// DirCheckpointer persists checkpoints as files under one directory
// (standing in for the distributed file system of the paper's cluster), so
// a killed pipeline process can be restarted with Config.Resume and fast-
// forward each job from its last completed checkpoint.
//
// Commit protocol: each blob goes to a uniquely named temp file (safe when
// several processes share the directory), is fsynced, renamed into place,
// and the directory is fsynced — so under DurabilityFull (the default) a
// checkpoint reported saved is on stable storage, surviving a machine
// crash, not just a process crash. The store retains the newest
// KeepGenerations snapshots per job, giving corruption-aware recovery an
// older generation to walk back to when the newest file fails its
// checksums.
type DirCheckpointer struct {
	jobSet
	dir        string
	fsys       FS
	durability Durability
	keep       int
	mu         sync.Mutex
	seq        int
	// scanned marks jobs whose on-disk files (left by a previous process)
	// have been folded into retained, so only a job's first save pays for a
	// directory scan.
	scanned  map[string]bool
	retained map[string][]int // ascending steps of the retained files per job
}

// DirStoreOptions configures NewDirCheckpointerOpts. The zero value gives
// the production defaults: the real filesystem, DurabilityFull, two
// retained generations.
type DirStoreOptions struct {
	// FS is the filesystem the store runs against; nil means the real one
	// (OSFS). Tests inject internal/testfs here to exercise crash faults.
	FS FS
	// Durability selects the fsync discipline; see the Durability doc.
	Durability Durability
	// KeepGenerations is how many snapshots per job to retain. Older
	// generations exist purely as recovery fallbacks for when the newest
	// file is corrupt. Zero means the default of 2; 1 keeps only the
	// newest snapshot, leaving no fallback.
	KeepGenerations int
}

// NewDirCheckpointer creates (if needed) and opens a checkpoint directory
// with the default options.
func NewDirCheckpointer(dir string) (*DirCheckpointer, error) {
	return NewDirCheckpointerOpts(dir, DirStoreOptions{})
}

// NewDirCheckpointerOpts is NewDirCheckpointer with explicit store options.
func NewDirCheckpointerOpts(dir string, opts DirStoreOptions) (*DirCheckpointer, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = OSFS()
	}
	keep := opts.KeepGenerations
	if keep <= 0 {
		keep = 2
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pregel: checkpoint dir: %w", err)
	}
	return &DirCheckpointer{
		dir:        dir,
		fsys:       fsys,
		durability: opts.Durability,
		keep:       keep,
		scanned:    map[string]bool{},
		retained:   map[string][]int{},
	}, nil
}

// NextJob implements Checkpointer. The sequence restarts at zero in every
// process; deterministic pipelines re-reserve identical keys on a rerun,
// which is what Resume relies on.
func (d *DirCheckpointer) NextJob(name string) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	job := jobKey(name, d.seq)
	d.seq++
	return job
}

func (d *DirCheckpointer) path(job string, step int) string {
	return filepath.Join(d.dir, fmt.Sprintf("%s.%08d.ckpt", job, step))
}

// write commits one artifact: its parts in order into a unique temp file,
// optional fsync, rename, optional directory fsync. The unique temp name
// (os.CreateTemp-style random suffix) is what makes a shared checkpoint
// directory safe — a fixed name would let two processes interleave writes
// into the same file. Temp names never end in .ckpt, so the scanners
// ignore strays left by a crash mid-write.
func (d *DirCheckpointer) write(final string, parts [][]byte) error {
	f, err := d.fsys.CreateTemp(d.dir, filepath.Base(final)+".tmp-*")
	if err != nil {
		return fmt.Errorf("pregel: writing checkpoint: %w", err)
	}
	tmp := f.Name()
	abort := func(step string, err error) error {
		f.Close()
		d.fsys.Remove(tmp)
		return fmt.Errorf("pregel: %s checkpoint: %w", step, err)
	}
	for _, p := range parts {
		if _, err := f.Write(p); err != nil {
			return abort("writing", err)
		}
	}
	if d.durability == DurabilityFull {
		if err := f.Sync(); err != nil {
			return abort("syncing", err)
		}
	}
	if err := f.Close(); err != nil {
		d.fsys.Remove(tmp)
		return fmt.Errorf("pregel: writing checkpoint: %w", err)
	}
	if err := d.fsys.Rename(tmp, final); err != nil {
		d.fsys.Remove(tmp)
		return fmt.Errorf("pregel: committing checkpoint: %w", err)
	}
	if d.durability == DurabilityFull {
		if err := d.fsys.SyncDir(d.dir); err != nil {
			return fmt.Errorf("pregel: syncing checkpoint dir: %w", err)
		}
	}
	return nil
}

// ensureScanned folds the directory's existing files for job (left by a
// previous process) into the in-memory retention state, once per job.
func (d *DirCheckpointer) ensureScanned(job string) error {
	if d.scanned[job] {
		return nil
	}
	steps, err := d.scan(job)
	if err != nil {
		return err
	}
	d.retained[job] = steps
	d.scanned[job] = true
	return nil
}

// insertStep adds s to an ascending step list, keeping it sorted and
// duplicate-free.
func insertStep(steps []int, s int) []int {
	for _, v := range steps {
		if v == s {
			return steps
		}
	}
	steps = append(steps, s)
	sort.Ints(steps)
	return steps
}

// Save implements Checkpointer.
func (d *DirCheckpointer) Save(job string, step int, parts ...[]byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.ensureScanned(job); err != nil {
		return err
	}
	if err := d.write(d.path(job, step), parts); err != nil {
		return err
	}
	// Drop superseded generations beyond the newest keep. The new file is
	// durable before anything is deleted (write fsyncs the directory), so
	// a crash at any point here leaves a restorable store.
	retained := insertStep(d.retained[job], step)
	if len(retained) > d.keep {
		for _, s := range retained[:len(retained)-d.keep] {
			d.fsys.Remove(d.path(job, s))
		}
		retained = append([]int(nil), retained[len(retained)-d.keep:]...)
	}
	d.retained[job] = retained
	return nil
}

// scan lists the checkpointed superstep numbers present for job, ascending.
func (d *DirCheckpointer) scan(job string) ([]int, error) {
	names, err := d.fsys.ReadDir(d.dir)
	if err != nil {
		return nil, fmt.Errorf("pregel: scanning checkpoints: %w", err)
	}
	prefix := job + "."
	var steps []int
	for _, name := range names {
		num, ok := strings.CutPrefix(name, prefix)
		if !ok {
			continue
		}
		if num, ok = strings.CutSuffix(num, ".ckpt"); !ok {
			continue
		}
		if s, err := strconv.Atoi(num); err == nil {
			steps = append(steps, s)
		}
	}
	sort.Ints(steps)
	return steps, nil
}

// Latest implements Checkpointer: the newest snapshot.
func (d *DirCheckpointer) Latest(job string) (int, []byte, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	steps, err := d.scan(job)
	if err != nil {
		return 0, nil, false, err
	}
	if len(steps) == 0 {
		return 0, nil, false, nil
	}
	step := steps[len(steps)-1]
	data, err := d.fsys.ReadFile(d.path(job, step))
	if err != nil {
		return 0, nil, false, fmt.Errorf("pregel: reading checkpoint: %w", err)
	}
	return step, data, true, nil
}

// ckptGenerations implements generationSource: every snapshot still in
// the directory, newest first. Blobs are handed up with any read error
// attached; loadCheckpoint decides whether a bad artifact walks recovery
// back a generation.
func (d *DirCheckpointer) ckptGenerations(job string) ([]ckptBlobRef, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	steps, err := d.scan(job)
	if err != nil {
		return nil, err
	}
	gens := make([]ckptBlobRef, 0, len(steps))
	for i := len(steps) - 1; i >= 0; i-- {
		p := d.path(job, steps[i])
		data, err := d.fsys.ReadFile(p)
		gens = append(gens, ckptBlobRef{data: data, src: filepath.Base(p), err: err})
	}
	return gens, nil
}

// jobKey builds the stable per-run key: the run name (or "run") plus the
// store-wide reservation sequence, sanitized for use as a file name.
func jobKey(name string, seq int) string {
	if name == "" {
		name = "run"
	}
	clean := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
			clean = append(clean, c)
		default:
			clean = append(clean, '_')
		}
	}
	return fmt.Sprintf("%s@%03d", clean, seq)
}

// ckptWorker is the decoded partition of one worker: everything runWorker
// and deliverTo need to replay from this point.
type ckptWorker[V, M any] struct {
	IDs    []VertexID
	Vals   []V
	Active []bool
	Dead   []bool
	NDead  int
	// InArena/InOff are the pending inbox: messages delivered at the
	// checkpoint barrier but not yet consumed.
	InArena []M
	InOff   []int32
}

// aggSnapshot is the serialized aggregator state at a superstep boundary
// (the just-published values; in-progress accumulators are always empty at
// a barrier).
type aggSnapshot struct {
	Sum map[string]int64
	Min map[string]int64
	Or  map[string]bool
}

// ckptFile is one whole checkpoint: run-level progress plus the per-worker
// partition blobs (each encoded separately, since on a real cluster every
// worker persists its own partition in parallel). On disk it is the
// checksummed binary container of format ckptVersion (see codec.go); the
// worker blobs use the binary value codec.
type ckptFile struct {
	Step    int
	Pending int64
	// PartitionerName and NumWorkers identify the placement the snapshot
	// was written under. Worker partitions are restored by index, so a
	// restore under a different partitioner or worker count would scatter
	// partition-local state; loadCheckpoint rejects either mismatch with
	// an error naming the difference (the job-key and fingerprint checks
	// alone would only report a generic identity mismatch).
	PartitionerName string
	NumWorkers      int
	// Run counters at the barrier, restored on rollback so a recovered
	// run reports the same totals as an unfailed one.
	Supersteps      int
	Messages        int64
	LocalMessages   int64
	RemoteMessages  int64
	Bytes           int64
	DroppedMessages int64
	// ClockNs is the simulated clock at checkpoint time (including this
	// checkpoint's write charge); Resume fast-forwards a fresh clock to
	// it, and in-process recovery never rewinds past it.
	ClockNs float64
	// Fingerprint identifies the run that wrote the checkpoint (worker
	// layout + input vertex-ID set, see runFingerprint); a restore whose
	// run computes a different fingerprint is an error, so resuming
	// against changed input or configuration fails instead of silently
	// replaying stale state.
	Fingerprint uint64
	Agg         aggSnapshot
	Workers     [][]byte
}

// ckptRun is the per-Run checkpointing state: the reserved job key, the
// cadence, the store, and the run's identity fingerprint.
type ckptRun struct {
	store   Checkpointer
	job     string
	every   int
	fp      uint64
	part    string // Partitioner.Name() of the running graph
	workers int

	// warn and metrics carry the run's diagnostics sinks (Config.Warn and
	// Config.Metrics) into the load path, which runs without a *Graph.
	warn    func(format string, args ...any)
	metrics *telemetry.Registry
}

func (ck *ckptRun) warnf(format string, args ...any) {
	if ck.warn != nil {
		ck.warn(format, args...)
	}
}

func (ck *ckptRun) count(name string, v int64) {
	if ck.metrics != nil {
		ck.metrics.Counter(name).Add(v)
	}
}

// newCkptRun reserves a job key when checkpointing is enabled for g, and
// returns nil otherwise. Called after sortVertices, so the fingerprint
// hashes the run's input state. Reserving a key the store already handed
// to another run is an error (see jobTracker).
func (g *Graph[V, M]) newCkptRun(name string) (*ckptRun, error) {
	if g.cfg.CheckpointEvery <= 0 {
		return nil, nil
	}
	store := g.cfg.Checkpointer
	if store == nil {
		// withDefaults installs a MemCheckpointer whenever CheckpointEvery
		// is set, so this is only reachable on a hand-built Config.
		store = NewMemCheckpointer()
		g.cfg.Checkpointer = store
	}
	job := store.NextJob(g.cfg.JobPrefix + name)
	if t, ok := store.(jobTracker); ok {
		if err := t.trackJob(job); err != nil {
			return nil, err
		}
	}
	return &ckptRun{
		store:   store,
		job:     job,
		every:   g.cfg.CheckpointEvery,
		fp:      g.runFingerprint(),
		part:    g.cfg.Partitioner.Name(),
		workers: g.cfg.Workers,
		warn:    g.warnf,
		metrics: g.cfg.Metrics,
	}, nil
}

// runFingerprint hashes the run's identity — worker layout plus the input
// vertex-ID set — FNV-1a style. Checkpoints carry it so a restore into a
// run with different input or configuration is rejected.
func (g *Graph[V, M]) runFingerprint() uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(g.cfg.Workers))
	mix(uint64(g.cfg.MessageBytes))
	for _, w := range g.workers {
		mix(uint64(len(w.ids)))
		for _, id := range w.ids {
			mix(uint64(id))
		}
	}
	return h
}

// saveCheckpoint snapshots the graph at a superstep boundary, charges the
// write to the simulated clock, and hands the container to the store as
// parts (ckptParts), so no section is copied after its worker encoded it.
// Each worker encodes and checksums its own section, concurrently in
// Parallel mode, mirroring the compute/deliver phases.
func (g *Graph[V, M]) saveCheckpoint(ck *ckptRun, step int, pending int64, stats *Stats) error {
	wall0 := nowNs()
	if g.cfg.Tracer != nil {
		g.emit(telemetry.KindBegin, "checkpoint.save", "checkpoint", wall0, g.clock.Ns(),
			telemetry.I("step", int64(step)))
	}
	ck.releaseSnapshot()
	blobs := make([][]byte, g.cfg.Workers)
	crcs := make([]uint32, g.cfg.Workers)
	forEachWorker(g.cfg.Workers, g.cfg.Parallel, g.runName, "checkpoint", func(wi int) {
		blobs[wi] = encodeWorkerSection(g.workers[wi])
		crcs[wi] = crc32.Checksum(blobs[wi], castagnoli)
	})
	maxBytes, totalBytes := 0.0, int64(0)
	for _, b := range blobs {
		totalBytes += int64(len(b))
		maxBytes = max(maxBytes, float64(len(b)))
	}
	// Charge the write before stamping ClockNs so a resumed run starts at
	// the post-write time and never under-reports.
	g.clock.ChargeCheckpoint(maxBytes)
	file := ckptFile{
		Step:            step,
		Pending:         pending,
		PartitionerName: ck.part,
		NumWorkers:      ck.workers,
		Supersteps:      stats.Supersteps,
		Messages:        stats.Messages,
		LocalMessages:   stats.LocalMessages,
		RemoteMessages:  stats.RemoteMessages,
		Bytes:           stats.Bytes,
		DroppedMessages: stats.DroppedMessages,
		ClockNs:         g.clock.ns,
		Fingerprint:     ck.fp,
		Agg:             g.agg.snapshot(),
		Workers:         blobs,
	}
	if err := ck.store.Save(ck.job, step, ckptParts(&file, crcs)...); err != nil {
		return err
	}
	stats.CheckpointSaves++
	stats.CheckpointBytesWritten += totalBytes
	g.clock.CountCheckpointSave(totalBytes)
	if g.cfg.Metrics != nil {
		g.cfg.Metrics.Counter("pregel_checkpoint_saves_total").Add(1)
		g.cfg.Metrics.Counter("pregel_checkpoint_bytes_written_total").Add(totalBytes)
	}
	if g.cfg.Tracer != nil {
		g.emit(telemetry.KindEnd, "checkpoint.save", "checkpoint", nowNs(), g.clock.Ns(),
			telemetry.I("step", int64(step)), telemetry.I("bytes", totalBytes))
	}
	return nil
}

// validateIdentity rejects a checkpoint written by a different placement or
// run. Placement guards run before the generic fingerprint check so a
// partitioner or worker-count change is reported as exactly that. These are
// hard errors, never walked back from: an older generation was written by
// the same run and would be just as mismatched.
func (ck *ckptRun) validateIdentity(file *ckptFile) error {
	if file.PartitionerName != ck.part {
		return fmt.Errorf("pregel: checkpoint for job %q was written under partitioner %q, but this run places vertices with %q; restoring would scatter partition-local state — rerun with the original partitioner or delete the checkpoint directory to start fresh", ck.job, file.PartitionerName, ck.part)
	}
	if file.NumWorkers != ck.workers {
		return fmt.Errorf("pregel: checkpoint for job %q was written with %d workers, but this run has %d; rerun with the original worker count or delete the checkpoint directory to start fresh", ck.job, file.NumWorkers, ck.workers)
	}
	if file.Fingerprint != ck.fp {
		return fmt.Errorf("pregel: checkpoint for job %q was written by a different run (input or configuration changed); delete the checkpoint directory to start fresh", ck.job)
	}
	return nil
}

// loadCheckpoint fetches and decodes the latest checkpoint for the run,
// verifying that it was written by a run with the same identity. With the
// built-in stores (generationSource) the load is corruption-aware: an
// artifact failing its CRC or decode is reported through Config.Warn and
// recovery walks back to the previous generation; only when no intact
// snapshot remains does the load fail.
func (ck *ckptRun) loadCheckpoint() (*ckptFile, bool, error) {
	if gs, ok := ck.store.(generationSource); ok {
		return ck.loadFromGenerations(gs)
	}
	// Custom stores expose only the newest snapshot; any decode failure is
	// fatal since there is nothing to walk back to.
	_, data, ok, err := ck.store.Latest(ck.job)
	if err != nil || !ok {
		return nil, ok, err
	}
	file, err := decodeCkptFile(ck.job, data)
	if err != nil {
		return nil, false, err
	}
	if err := ck.validateIdentity(file); err != nil {
		return nil, false, err
	}
	return file, true, nil
}

// loadFromGenerations is the corruption-aware restore path. Generations are
// tried newest first; a corrupt one is warned about, counted
// (pregel_checkpoint_corrupt_skipped_total) and abandoned for the previous
// generation. If corruption was seen and no intact snapshot remains, the
// load fails — silently recomputing from scratch would mask data loss.
func (ck *ckptRun) loadFromGenerations(gs generationSource) (*ckptFile, bool, error) {
	gens, err := gs.ckptGenerations(ck.job)
	if err != nil {
		return nil, false, err
	}
	sawCorrupt := false
	for _, ref := range gens {
		file, derr := (*ckptFile)(nil), ref.err
		if derr == nil {
			file, derr = decodeCkptFile(ck.job, ref.data)
		}
		if derr != nil {
			if ref.err != nil || errors.Is(derr, ErrCheckpointCorrupt) {
				sawCorrupt = true
				ck.warnf("pregel: skipping corrupt checkpoint artifact %s (job %q): %v", ref.src, ck.job, derr)
				ck.count("pregel_checkpoint_corrupt_skipped_total", 1)
				continue
			}
			return nil, false, derr
		}
		if err := ck.validateIdentity(file); err != nil {
			return nil, false, err
		}
		if sawCorrupt {
			ck.warnf("pregel: job %q recovering from checkpoint at step %d after skipping corrupt artifacts", ck.job, file.Step)
		}
		return file, true, nil
	}
	if sawCorrupt {
		return nil, false, fmt.Errorf("pregel: every checkpoint for job %q failed integrity verification; refusing to silently recompute from scratch — inspect the directory (ppa-assembler -ckpt-verify), restore the files, or delete the checkpoint directory to accept a full recompute", ck.job)
	}
	return nil, false, nil
}

// restoreCheckpoint replaces the graph's in-run state with the snapshot's:
// worker partitions, aggregator values, and the run counters inside stats.
// It charges the recovery read to the clock — which, like real time, only
// moves forward — and returns the superstep to resume at plus the
// pending-message count at that barrier.
func (g *Graph[V, M]) restoreCheckpoint(file *ckptFile, stats *Stats) (step int, pending int64, err error) {
	if len(file.Workers) != g.cfg.Workers {
		return 0, 0, fmt.Errorf("pregel: checkpoint has %d workers, graph has %d", len(file.Workers), g.cfg.Workers)
	}
	wall0 := nowNs()
	if g.cfg.Tracer != nil {
		g.emit(telemetry.KindBegin, "checkpoint.restore", "checkpoint", wall0, g.clock.Ns(),
			telemetry.I("step", int64(file.Step)))
	}
	errs := make([]error, g.cfg.Workers)
	maxBytes, totalBytes := 0.0, int64(0)
	for _, b := range file.Workers {
		totalBytes += int64(len(b))
		maxBytes = max(maxBytes, float64(len(b)))
	}
	forEachWorker(g.cfg.Workers, g.cfg.Parallel, g.runName, "checkpoint", func(wi int) {
		cw, err := decodeWorkerSection[V, M](file.Workers[wi])
		if err != nil {
			errs[wi] = err
			return
		}
		w := g.workers[wi]
		n := len(cw.IDs)
		w.ids = cw.IDs
		w.vals = cw.Vals
		w.active = cw.Active
		w.dead = cw.Dead
		w.nDead = cw.NDead
		w.inArena = cw.InArena
		// Empty slices may decode as nil; the delivery path needs the
		// offset index to exist even for an empty partition.
		w.inOff = growTo(cw.InOff, n+1)
		w.inCur = growTo(w.inCur, n)
		if !w.lazy {
			w.idx.rebuild(w.ids, n)
		}
	})
	for wi, err := range errs {
		if err != nil {
			return 0, 0, fmt.Errorf("pregel: decoding checkpoint (worker %d): %w", wi, err)
		}
	}
	g.agg.restore(file.Agg)
	stats.Supersteps = file.Supersteps
	stats.Messages = file.Messages
	stats.LocalMessages = file.LocalMessages
	stats.RemoteMessages = file.RemoteMessages
	stats.Bytes = file.Bytes
	stats.DroppedMessages = file.DroppedMessages
	g.clock.advanceTo(file.ClockNs)
	g.clock.ChargeRecovery(maxBytes)
	stats.CheckpointRestores++
	stats.CheckpointBytesRestored += totalBytes
	g.clock.CountCheckpointRestore(totalBytes)
	if g.cfg.Metrics != nil {
		g.cfg.Metrics.Counter("pregel_checkpoint_restores_total").Add(1)
		g.cfg.Metrics.Counter("pregel_checkpoint_bytes_restored_total").Add(totalBytes)
	}
	if g.cfg.Tracer != nil {
		g.emit(telemetry.KindEnd, "checkpoint.restore", "checkpoint", nowNs(), g.clock.Ns(),
			telemetry.I("step", int64(file.Step)), telemetry.I("bytes", totalBytes))
	}
	return file.Step, file.Pending, nil
}
