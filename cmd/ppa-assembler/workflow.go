package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"ppaassembler/internal/core"
	"ppaassembler/internal/fastx"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/scaffold"
	"ppaassembler/internal/workflow"
)

// engineEnv renders the engine flags as the plan's environment: the
// embedded options' engine configuration, the telemetry sinks, and the
// checkpoint store and fault plan the flags name.
func engineEnv(o cliOpts, obs *observability) (*workflow.Env, error) {
	env := o.Env(nil)
	env.Tracer, env.Metrics = obs.Tracer, obs.Metrics
	var err error
	if o.checkpoint != "" {
		if env.Checkpointer, err = pregel.NewDirCheckpointer(o.checkpoint); err != nil {
			return nil, err
		}
	}
	if o.faultPlan != "" {
		if env.Faults, err = pregel.ParseFaultPlan(o.faultPlan); err != nil {
			return nil, err
		}
	}
	return env, nil
}

// runWorkflow executes the run's workflow spec: -workflow, or without it
// the options' canned plan (core.Options.Spec), the contig FASTA and with
// -scaffold stage ⑦. The global flags become the spec's parameter defaults,
// the options, the plan and its outputs are checked before any input is
// read, and the fasta, graph and scaffold artifacts it produces are written
// to -out, -gfa and -scaffold.
func runWorkflow(o cliOpts, obs *observability) error {
	start := time.Now()
	var err error
	if o.Labeler, err = core.ParseLabeler(o.labeler); err != nil {
		return err
	}
	// A checkpoint directory or a fault plan implies checkpointing even
	// without an explicit cadence; a negative one is refused by Validate.
	if o.CheckpointEvery == 0 && (o.checkpoint != "" || o.faultPlan != "") {
		o.CheckpointEvery = 5
	}
	if err := o.Validate(); err != nil {
		return err
	}
	spec := o.workflow
	if spec == "" {
		spec = o.Spec() + ",fasta"
		if o.scaffoldOut != "" {
			spec += ",scaffold"
		}
	} else if o.Rounds != 2 {
		return fmt.Errorf("-rounds is ignored with -workflow; compose the rounds in the spec instead")
	}
	plan, err := workflow.Parse(core.OpRegistry(o.Options), spec, core.ArtReads, core.ArtPairs)
	if err != nil {
		return err
	}
	wantsScaffolds := plan.Provides(core.ArtScaffolds)
	if !plan.Provides(core.ArtFasta) && !wantsScaffolds {
		return fmt.Errorf("workflow %q writes no output; append a fasta or scaffold op", spec)
	}
	if wantsScaffolds && o.scaffoldOut == "" {
		return fmt.Errorf("workflow %q scaffolds, but -scaffold gives no output path", spec)
	}
	if !wantsScaffolds && o.scaffoldOut != "" {
		return fmt.Errorf("-scaffold %s is set, but workflow %q has no scaffold op", o.scaffoldOut, spec)
	}
	if o.gfa != "" && !plan.Provides(core.ArtLinked) {
		return fmt.Errorf("-gfa needs the error-corrected graph, but workflow %q never links contigs into it (use -rounds 2, or a spec with rebuild,link)", spec)
	}

	env, err := engineEnv(o, obs)
	if err != nil {
		return err
	}

	reads, err := loadReadList(o.in)
	if err != nil {
		return err
	}
	st := &core.State{Reads: pregel.ShardSlice(reads, o.Workers)}
	if wantsScaffolds {
		// Pair up front so an odd read count fails before assembly.
		if st.Pairs, err = scaffold.PairUp(reads); err != nil {
			return err
		}
	}
	runErr := plan.Run(env, st)
	// The contigs are written even when an op after the fasta op failed
	// (say, scaffolding with no pairs to estimate the insert size from):
	// that failure never discards the finished assembly.
	if st.Fasta != nil {
		if err := writeOutput(o.out, func(w io.Writer) error { return fastx.WriteFasta(w, st.Fasta, 70) }); err != nil {
			return errors.Join(runErr, err)
		}
	}
	if runErr != nil {
		return runErr
	}
	if o.gfa != "" {
		if err := writeOutput(o.gfa, func(w io.Writer) error { return core.WriteGFA(w, st.Graph, st.K) }); err != nil {
			return err
		}
	}
	if wantsScaffolds {
		recs := scaffold.Records(st.ScaffoldContigs, st.Scaffold.Scaffolds)
		if err := writeOutput(o.scaffoldOut, func(w io.Writer) error { return fastx.WriteFasta(w, recs, 70) }); err != nil {
			return err
		}
	}
	if !o.quiet {
		printSummary(plan.String(), env, st, time.Since(start))
	}
	return nil
}

// writeOutput creates path ("-" is stdout), writes it with write and
// returns the first error, Close's included; the file's errors name the
// path.
func writeOutput(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printSummary reports the run on stderr from whichever metrics its ops
// filled, and the shared clock's traffic, checkpoint and time totals.
func printSummary(spec string, env *workflow.Env, st *core.State, wall time.Duration) {
	p := func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	m := &st.Metrics
	p("workflow:          %s", spec)
	if m.KmerVertices > 0 {
		p("k-mer vertices:    %d", m.KmerVertices)
		// The spec may override -theta per op, so the flag is not reported.
		p("(k+1)-mers kept:   %d / %d", m.K1Kept, m.K1Distinct)
	}
	if m.BubblesPruned > 0 {
		p("bubbles pruned:    %d", m.BubblesPruned)
	}
	if m.TipVerticesRemoved > 0 || len(m.MergeDroppedTips) > 0 {
		p("tip vertices gone: %d (merge-time drops %v)", m.TipVerticesRemoved, m.MergeDroppedTips)
	}
	if m.BranchesCut > 0 {
		p("branches cut:      %d", m.BranchesCut)
	}
	if st.Fasta != nil {
		p("contigs written:   %d", len(st.Fasta))
	}
	if sres := st.Scaffold; sres != nil {
		multi, largest := 0, 0
		for _, s := range sres.Scaffolds {
			if s.Len() > 1 {
				multi++
			}
			largest = max(largest, s.Len())
		}
		p("scaffolds written: %d (%d multi-contig, largest chain %d contigs)", len(sres.Scaffolds), multi, largest)
		p("scaffold links:    %d bundles, %d kept (insert %.0f±%.0f, %d/%d pairs placed)",
			sres.LinkBundles, sres.LinksKept, sres.InsertMean, sres.InsertSD, sres.PairsPlaced, sres.PairsTotal)
		p("scaffold jobs:     %d supersteps, %d messages, %.2fs simulated",
			sres.Stats.Supersteps, sres.Stats.Messages, sres.SimSeconds)
	}
	c := env.Clock
	if f := env.Faults; f != nil {
		// "all recovered" only when every scheduled fault fired: a fault
		// scheduled past the run's last round never fires.
		fired, scheduled := f.FiredCount(), f.Scheduled()
		outcome := "all recovered"
		if fired < scheduled {
			outcome = fmt.Sprintf("%d recovered, %d never fired (the run ended before its round)", fired, scheduled-fired)
		}
		p("faults injected:   %d/%d fired, %s (checkpoint every %d supersteps)", fired, scheduled, outcome, env.CheckpointEvery)
	}
	if c.CheckpointSaves() > 0 || c.CheckpointRestores() > 0 {
		p("checkpoint I/O:    %d saves (%d bytes written), %d restores (%d bytes read)",
			c.CheckpointSaves(), c.CheckpointBytesWritten(), c.CheckpointRestores(), c.CheckpointBytesRestored())
	}
	if total := c.LocalMessages() + c.RemoteMessages(); total > 0 {
		p("shuffle traffic:   %d messages, %.1f%% remote", total, 100*float64(c.RemoteMessages())/float64(total))
	}
	p("simulated time:    %.2fs (%d workers), wall %.2fs", c.Seconds(), env.Workers, wall.Seconds())
}
