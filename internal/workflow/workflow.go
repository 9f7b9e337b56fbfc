// Package workflow is the composable job layer the paper positions as its
// headline contribution (§II, §IV): assembly operations are not stages of
// one hard-coded pipeline but first-class, typed building blocks that users
// chain into their own workflows. An Op declares the artifacts it needs,
// produces and consumes; a Plan validates the artifact flow at build time
// (before any compute) and then runs the ops in order, threading one shared
// execution environment — simulated clock, checkpoint store, fault plan —
// through every job so checkpoint/resume and fault injection keep working
// across arbitrary user compositions.
//
// The package is deliberately generic over the state type S: the engine
// knows nothing about assembly. The op catalog for the assembler (BuildDBG,
// Label, Merge, BubblePop, TipTrim, ...) lives in internal/core, which
// implements Op[core.State] for each operation; that is what lets
// core.Assemble itself be a thin canned plan without an import cycle.
//
// Between two ops the handoff is in memory by default (the Pregel+ convert
// extension); inserting a staging op (core.StageOp) at a seam dumps the
// live artifacts to a shardio store and reloads them, which is how the
// paper positions HDFS between jobs of different systems.
package workflow

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"ppaassembler/internal/pregel"
	"ppaassembler/internal/telemetry"
)

// Artifact names a typed value flowing between operations (reads, the
// segment graph, a contig set, ...). The planner tracks which artifacts are
// live to reject ill-typed compositions before any compute runs.
type Artifact string

// Info is an operation's static type signature: its catalog name, the
// artifacts that must be live before it runs, the artifacts it makes live,
// and the artifacts it invalidates.
type Info struct {
	Name string
	// Needs must all be live when the op runs.
	Needs []Artifact
	// NeedsAny requires at least one of these to be live (for ops like a
	// staging seam that operate on whichever artifacts exist).
	NeedsAny []Artifact
	// Produces become live after the op.
	Produces []Artifact
	// Consumes become dead after the op (checked against later Needs).
	Consumes []Artifact
}

// Op is one assembly operation over a workflow state S: a typed job (or a
// short fixed sequence of jobs) with per-op configuration carried on the
// implementing struct.
type Op[S any] interface {
	Info() Info
	Run(env *Env, st *S) error
}

// Env is the shared execution environment a plan threads through every op:
// the engine parameters plus the cross-job state (simulated clock,
// checkpoint store, fault plan) that must be shared for end-to-end time
// accounting, crash schedules and resume to span the whole composition.
type Env struct {
	// Workers is the number of logical Pregel workers, shared by every op.
	Workers int
	// Parallel runs engine workers and MapReduce tasks on all cores (see
	// pregel.Config.Parallel).
	Parallel bool
	// Cost parameterizes the simulated cluster (zero value = default).
	Cost pregel.CostModel
	// Partitioner is the vertex-placement strategy every op builds its
	// graphs with (nil = hash). Ops may replace it mid-plan (see
	// core.PartitionOp); graphs already built keep the placement they were
	// constructed with.
	Partitioner pregel.Partitioner
	// MessageBytes is the charged wire size of one engine message (0 =
	// pregel.DefaultMessageBytes). The assembler sets its Msg record's
	// actual wire size here so the simulated network load reflects the
	// traffic the paper's cluster would carry.
	MessageBytes int

	// CheckpointEvery, Checkpointer, Faults and Resume configure Pregel-
	// style fault tolerance exactly as on pregel.Config; the plan passes
	// them to every op so one store and one crash schedule span the run.
	CheckpointEvery int
	Checkpointer    pregel.Checkpointer
	Faults          *pregel.FaultPlan
	Resume          bool

	// Clock is the simulated-cluster clock every op charges. Plan.Run
	// installs a fresh one when nil.
	Clock *pregel.SimClock

	// Tracer, when non-nil, receives telemetry spans from every op and
	// every engine/MapReduce job the ops start: Plan.Run brackets the plan
	// and each op with spans, and Config/MRConfig thread the tracer down
	// to the engine. Ops may install or wrap it mid-plan (core.TraceOp is
	// how the `trace:` spec op turns tracing on for the rest of a plan).
	Tracer telemetry.Tracer
	// Metrics, when non-nil, collects engine and workflow counters.
	Metrics *telemetry.Registry
	// Warn, when non-nil, receives the engine's non-fatal diagnostics
	// (pregel.Config.Warn) from every op. Nil routes each distinct message
	// to stderr once per process.
	Warn func(msg string)

	prefix  string         // current op's deterministic job-key prefix
	closers []func() error // sinks to flush/close when the plan finishes
}

// normalize fills the cross-job state exactly once per run.
func (e *Env) normalize() error {
	if err := e.Config().Validate(); err != nil {
		return err
	}
	if err := e.MRConfig().Validate(); err != nil {
		return err
	}
	if e.Clock == nil {
		e.Clock = pregel.NewSimClock(e.Cost)
	}
	if e.CheckpointEvery > 0 && e.Checkpointer == nil {
		// One shared store for every op, so job keys are reserved in plan
		// order (which is what Resume relies on).
		e.Checkpointer = pregel.NewMemCheckpointer()
	}
	return nil
}

// Config renders the environment as an engine configuration for the
// current op, including its deterministic job-key prefix.
func (e *Env) Config() pregel.Config {
	return pregel.Config{
		Workers: e.Workers, Parallel: e.Parallel, Cost: e.Cost,
		Partitioner: e.Partitioner, MessageBytes: e.MessageBytes,
		CheckpointEvery: e.CheckpointEvery, Checkpointer: e.Checkpointer,
		Faults: e.Faults, Resume: e.Resume,
		JobPrefix: e.prefix,
		Tracer:    e.Tracer, Metrics: e.Metrics, Warn: e.Warn,
	}
}

// MRConfig renders the environment as a mini-MapReduce configuration.
// MapReduce jobs recover by lineage, not checkpoint, so only the crash
// schedule is threaded through. The partitioner deliberately is not:
// MRConfig.Partitioner reinterprets keyHash as a routing-ID projection,
// which only call sites with vertex-ID keys opt into explicitly (the DBG
// build); generic ops keep hashed grouping so their reducer assignment
// stays placement-invariant.
func (e *Env) MRConfig() pregel.MRConfig {
	return pregel.MRConfig{
		Workers: e.Workers, Parallel: e.Parallel, Faults: e.Faults,
		Name: strings.TrimSuffix(e.prefix, "."), Tracer: e.Tracer, Metrics: e.Metrics,
	}
}

// JobPrefix is the deterministic job-key prefix of the op being run
// (e.g. "s03.tiptrim."): plan position plus op name. Ops prepend it —
// via pregel.Config.JobPrefix or Graph.SetJobPrefix — to every job they
// start, so checkpoint keys are stable and self-describing for any
// composition, and a re-executed plan re-reserves identical keys on Resume.
func (e *Env) JobPrefix() string { return e.prefix }

// AddCloser registers fn to run when the enclosing Plan.Run finishes,
// success or failure — how trace/metrics sinks opened mid-plan (by
// core.TraceOp) get flushed exactly once. Closers run in registration
// order after the last op; their first error surfaces only when the plan
// itself succeeded.
func (e *Env) AddCloser(fn func() error) { e.closers = append(e.closers, fn) }

// runClosers drains the registered closers, returning the first error.
func (e *Env) runClosers() error {
	var first error
	for _, fn := range e.closers {
		if err := fn(); err != nil && first == nil {
			first = err
		}
	}
	e.closers = nil
	return first
}

// Plan is an ordered composition of ops plus the artifact-flow validation
// state. Build one with NewPlan, chain ops with Then (validation errors
// accumulate and surface on Run or Err), then execute with Run.
type Plan[S any] struct {
	ops   []Op[S]
	live  map[Artifact]bool
	specs []string
	err   error
}

// NewPlan starts an empty plan whose initial live artifacts are initial
// (e.g. the sharded reads a CLI loaded from disk).
func NewPlan[S any](initial ...Artifact) *Plan[S] {
	p := &Plan[S]{live: map[Artifact]bool{}}
	for _, a := range initial {
		p.live[a] = true
	}
	return p
}

// Then appends op after validating its Info against the artifacts live at
// this point of the plan. A failed validation poisons the plan; further
// Then calls are no-ops and Run/Err report the first error.
func (p *Plan[S]) Then(op Op[S]) *Plan[S] {
	if p.err != nil {
		return p
	}
	info := op.Info()
	for _, need := range info.Needs {
		if !p.live[need] {
			p.err = fmt.Errorf("workflow: op %d (%s) needs %q, but the plan so far only provides %s",
				len(p.ops), info.Name, need, describeLive(p.live))
			return p
		}
	}
	if len(info.NeedsAny) > 0 {
		ok := false
		for _, need := range info.NeedsAny {
			if p.live[need] {
				ok = true
				break
			}
		}
		if !ok {
			p.err = fmt.Errorf("workflow: op %d (%s) needs one of %v, but the plan so far only provides %s",
				len(p.ops), info.Name, info.NeedsAny, describeLive(p.live))
			return p
		}
	}
	for _, a := range info.Consumes {
		delete(p.live, a)
	}
	for _, a := range info.Produces {
		p.live[a] = true
	}
	p.ops = append(p.ops, op)
	p.specs = append(p.specs, info.Name)
	return p
}

// Err returns the first validation error, if any.
func (p *Plan[S]) Err() error { return p.err }

// Ops returns the validated op sequence.
func (p *Plan[S]) Ops() []Op[S] { return p.ops }

// String renders the plan as a spec-like op listing.
func (p *Plan[S]) String() string { return strings.Join(p.specs, ",") }

// Provides reports whether the plan's final state has artifact a live —
// how a caller checks, before running anything, that a user composition
// ends in the output it wants to write.
func (p *Plan[S]) Provides(a Artifact) bool { return p.err == nil && p.live[a] }

// Run executes the plan over st: it validates and normalizes env, then
// runs every op in order with a deterministic job-key prefix derived from
// the op's plan position, so arbitrary compositions checkpoint and resume
// exactly like the canned pipelines. With a tracer set, each op's End span
// also carries what the op allocated and its GC CPU time (see opMem).
func (p *Plan[S]) Run(env *Env, st *S) (err error) {
	if p.err != nil {
		return p.err
	}
	if len(p.ops) == 0 {
		return fmt.Errorf("workflow: empty plan")
	}
	if err := env.normalize(); err != nil {
		return err
	}
	// Sinks registered by ops (TraceOp) must flush even when a later op
	// fails — a truncated trace of a failed run is exactly when one wants
	// to look at it.
	defer func() {
		if cerr := env.runClosers(); err == nil {
			err = cerr
		}
	}()
	if env.Tracer != nil {
		env.Tracer.Emit(telemetry.Event{
			Kind: telemetry.KindBegin, Name: "plan", Cat: "workflow",
			WallNs: time.Now().UnixNano(), SimNs: env.Clock.Ns(),
			Args: []telemetry.Arg{telemetry.I("ops", int64(len(p.ops)))},
		})
		defer func() {
			env.Tracer.Emit(telemetry.Event{
				Kind: telemetry.KindEnd, Name: "plan", Cat: "workflow",
				WallNs: time.Now().UnixNano(), SimNs: env.Clock.Ns(),
			})
		}()
	}
	for i, op := range p.ops {
		name := op.Info().Name
		env.prefix = fmt.Sprintf("s%02d.%s.", i, sanitizeName(name))
		// Checked per op, not once: an op may install the tracer mid-plan.
		// The End goes to the tracer that saw the Begin — an op that
		// installs a sink (TraceOp) must not open that sink's stream with
		// its own unbalanced End span.
		tr := env.Tracer
		var mem0 opMem
		if tr != nil {
			tr.Emit(telemetry.Event{
				Kind: telemetry.KindBegin, Name: "op", Cat: "workflow",
				WallNs: time.Now().UnixNano(), SimNs: env.Clock.Ns(),
				Args: []telemetry.Arg{telemetry.S("op", name), telemetry.I("index", int64(i))},
			})
			mem0 = readOpMem()
		}
		opErr := op.Run(env, st)
		if tr != nil {
			mem := readOpMem()
			tr.Emit(telemetry.Event{
				Kind: telemetry.KindEnd, Name: "op", Cat: "workflow",
				WallNs: time.Now().UnixNano(), SimNs: env.Clock.Ns(),
				Args: []telemetry.Arg{telemetry.S("op", name),
					telemetry.M("alloc_bytes", mem.allocBytes-mem0.allocBytes),
					telemetry.M("alloc_objects", mem.allocObjects-mem0.allocObjects),
					telemetry.M("gc_cpu_ns", mem.gcCPUNs-mem0.gcCPUNs)},
			})
		}
		if env.Metrics != nil {
			env.Metrics.Counter("workflow_ops_total").Add(1)
		}
		if opErr != nil {
			return fmt.Errorf("workflow: op %d (%s): %w", i, name, opErr)
		}
	}
	env.prefix = ""
	return nil
}

// opMem is one reading of the runtime/metrics counters whose deltas an op's
// End span carries as measured args: alloc_bytes and alloc_objects (heap
// bytes and objects allocated) and gc_cpu_ns (GC CPU time). The counters are
// process-wide, so a delta includes whatever else the process did meanwhile.
type opMem struct{ allocBytes, allocObjects, gcCPUNs int64 }

// readOpMem reads the counters; only a traced plan calls it.
func readOpMem() opMem {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return opMem{int64(s[0].Value.Uint64()), int64(s[1].Value.Uint64()), int64(s[2].Value.Float64() * 1e9)}
}

// describeLive lists live artifacts for error messages, deterministically.
func describeLive(live map[Artifact]bool) string {
	if len(live) == 0 {
		return "nothing"
	}
	names := make([]string, 0, len(live))
	for a := range live {
		names = append(names, string(a))
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// sanitizeName keeps job-key prefixes filename-safe regardless of how an
// op names itself.
func sanitizeName(name string) string {
	clean := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_':
			clean = append(clean, c)
		default:
			clean = append(clean, '_')
		}
	}
	return string(clean)
}
