package main

import (
	"fmt"
	"os"
	"strings"

	"ppaassembler/internal/core"
	"ppaassembler/internal/fastx"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/scaffold"
	"ppaassembler/internal/workflow"
)

// parseLabeler maps the -labeler flag to a core.Labeler.
func parseLabeler(s string) (core.Labeler, error) {
	switch strings.ToLower(s) {
	case "lr":
		return core.LabelerLR, nil
	case "sv":
		return core.LabelerSV, nil
	default:
		return 0, fmt.Errorf("unknown labeler %q (want lr or sv)", s)
	}
}

// faultTolerance assembles the checkpoint/fault-injection settings shared
// by the canned pipeline and -workflow paths: a checkpoint directory or a
// fault plan implies checkpointing even without an explicit cadence.
func faultTolerance(o cliOpts) (every int, store pregel.Checkpointer, faults *pregel.FaultPlan, err error) {
	every = o.ckptEvery
	if every <= 0 && (o.checkpoint != "" || o.faultPlan != "") {
		every = 5
	}
	if o.checkpoint != "" {
		durability := pregel.DurabilityFull
		if !o.ckptFsync {
			durability = pregel.DurabilityNone
		}
		store, err = pregel.NewDirCheckpointerOpts(o.checkpoint, pregel.DirStoreOptions{Durability: durability})
		if err != nil {
			return 0, nil, nil, err
		}
	}
	if o.faultPlan != "" {
		if faults, err = pregel.ParseFaultPlan(o.faultPlan); err != nil {
			return 0, nil, nil, err
		}
	}
	return every, store, faults, nil
}

// runWorkflow executes a user-composed -workflow spec: the global flags
// become the spec's parameter defaults, the plan is type-checked before any
// input is read, and the fasta/scaffold artifacts it produces are written
// to -out and -scaffold.
func runWorkflow(o cliOpts, obs *observability) error {
	if o.gfa != "" {
		return fmt.Errorf("-gfa is not supported with -workflow (the canned pipeline tracks the final graph)")
	}
	if o.rounds != 2 {
		return fmt.Errorf("-rounds is ignored with -workflow; compose the rounds in the spec instead")
	}
	labeler, err := parseLabeler(o.labeler)
	if err != nil {
		return err
	}
	def := core.OpDefaults{
		K:              o.k,
		Theta:          o.theta,
		TipLen:         o.tip,
		BubbleEditDist: o.editDist,
		Labeler:        labeler,
		MinLen:         o.minLen,
		Scaffold: scaffold.Options{
			InsertMean: o.insert, InsertSD: o.insertSD,
			MinSupport: o.minSupport, MinContigLen: o.scafMinLen,
		},
	}
	plan, err := workflow.Parse(core.OpRegistry(def), o.workflow, core.ArtReads, core.ArtPairs)
	if err != nil {
		return err
	}
	wantsScaffolds := plan.Provides(core.ArtScaffolds)
	wantsFasta := plan.Provides(core.ArtFasta)
	if !wantsFasta && !wantsScaffolds {
		return fmt.Errorf("workflow %q writes no output; append a fasta or scaffold op", o.workflow)
	}
	if wantsScaffolds && o.scaffoldOut == "" {
		return fmt.Errorf("workflow %q scaffolds, but -scaffold gives no output path", o.workflow)
	}
	if !wantsScaffolds && o.scaffoldOut != "" {
		return fmt.Errorf("-scaffold %s is set, but workflow %q has no scaffold op", o.scaffoldOut, o.workflow)
	}

	every, store, faults, err := faultTolerance(o)
	if err != nil {
		return err
	}
	part, err := core.MakePartitioner(o.partitioner, o.k)
	if err != nil {
		return err
	}
	// The k-mer-aware strategies (range, minimizer) are sized by -k, but a
	// spec may override k on its build op; a mismatch would silently
	// degenerate the placement (e.g. a 2·21-bit range over 15-mer IDs puts
	// every vertex on worker 0) and make the locality numbers meaningless.
	// A partition op earlier in the spec supersedes the flag, so only the
	// flag-sized frame is checked.
	if o.partitioner != "" && o.partitioner != "hash" {
		for _, op := range plan.Ops() {
			if _, ok := op.(core.PartitionOp); ok {
				break
			}
			if b, ok := op.(core.BuildDBGOp); ok && b.K != o.k {
				return fmt.Errorf("-partitioner %s is sized for -k %d, but the workflow builds with k=%d; size it in the spec instead (e.g. \"partition:scheme=%s:k=%d,%s\") or align -k",
					o.partitioner, o.k, b.K, o.partitioner, b.K, o.workflow)
			}
		}
	}
	env := &workflow.Env{
		Workers: o.workers, Parallel: o.parallel,
		Partitioner: part, MessageBytes: core.MsgWireBytes,
		CheckpointEvery: every, Checkpointer: store,
		Faults: faults, Resume: o.resume,
		Tracer: obs.Tracer, Metrics: obs.Metrics,
	}

	reads, err := loadReadList(o.in)
	if err != nil {
		return err
	}
	st := &core.State{Reads: pregel.ShardSlice(reads, o.workers)}
	if wantsScaffolds {
		// Pair up front so an odd read count fails before assembly.
		if st.Pairs, err = scaffold.PairUp(reads); err != nil {
			return err
		}
	}
	if err := plan.Run(env, st); err != nil {
		return err
	}

	if wantsFasta {
		w := os.Stdout
		if o.out != "-" {
			f, err := os.Create(o.out)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := fastx.WriteFasta(w, st.Fasta, 70); err != nil {
			return err
		}
	}
	if wantsScaffolds {
		sf, err := os.Create(o.scaffoldOut)
		if err != nil {
			return err
		}
		defer sf.Close()
		if err := fastx.WriteFasta(sf, scaffold.Records(st.ScaffoldContigs, st.Scaffold.Scaffolds), 70); err != nil {
			return err
		}
	}
	if !o.quiet {
		printWorkflowSummary(o, plan.String(), env, st, wantsFasta)
	}
	return nil
}

// printWorkflowSummary reports the run in the shape of the canned
// pipeline's summary, driven by whichever metrics the composed ops filled.
func printWorkflowSummary(o cliOpts, spec string, env *workflow.Env, st *core.State, wroteFasta bool) {
	m := &st.Metrics
	fmt.Fprintf(os.Stderr, "workflow:          %s\n", spec)
	if m.KmerVertices > 0 {
		fmt.Fprintf(os.Stderr, "k-mer vertices:    %d\n", m.KmerVertices)
		// The spec may override -theta per op, so the flag value is not
		// reported here.
		fmt.Fprintf(os.Stderr, "(k+1)-mers kept:   %d / %d\n", m.K1Kept, m.K1Distinct)
	}
	if m.BubblesPruned > 0 {
		fmt.Fprintf(os.Stderr, "bubbles pruned:    %d\n", m.BubblesPruned)
	}
	if m.TipVerticesRemoved > 0 || len(m.MergeDroppedTips) > 0 {
		fmt.Fprintf(os.Stderr, "tip vertices gone: %d (merge-time drops %v)\n",
			m.TipVerticesRemoved, m.MergeDroppedTips)
	}
	if m.BranchesCut > 0 {
		fmt.Fprintf(os.Stderr, "branches cut:      %d\n", m.BranchesCut)
	}
	if wroteFasta {
		fmt.Fprintf(os.Stderr, "contigs written:   %d\n", len(st.Fasta))
	}
	if sres := st.Scaffold; sres != nil {
		multi, largest := 0, 0
		for _, s := range sres.Scaffolds {
			if s.Len() > 1 {
				multi++
			}
			if s.Len() > largest {
				largest = s.Len()
			}
		}
		fmt.Fprintf(os.Stderr, "scaffolds written: %d (%d multi-contig, largest chain %d contigs)\n",
			len(sres.Scaffolds), multi, largest)
	}
	printFaults(env.Faults, env.CheckpointEvery)
	printCheckpointIO(env.Clock.CheckpointSaves(), env.Clock.CheckpointRestores(),
		env.Clock.CheckpointBytesWritten(), env.Clock.CheckpointBytesRestored())
	if total := env.Clock.LocalMessages() + env.Clock.RemoteMessages(); total > 0 {
		fmt.Fprintf(os.Stderr, "shuffle traffic:   %d messages, %.1f%% remote (partitioner %s)\n",
			total, 100*float64(env.Clock.RemoteMessages())/float64(total), env.Partitioner.Name())
	}
	fmt.Fprintf(os.Stderr, "simulated time:    %.2fs (%d workers)\n", env.Clock.Seconds(), env.Workers)
}
