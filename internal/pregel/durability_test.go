package pregel_test

// Crash matrices for the checkpoint store: an engine-level, black-box
// counterpart to the codec-level corruption tests. Everything here runs
// against internal/testfs, which models real fsync/rename durability and
// injects torn writes, dropped fsyncs and mid-protocol crashes. The
// contract under test: whatever the filesystem does, a resumed run either
// finishes byte-identical to an unfailed run or refuses loudly — it never
// silently produces different output.

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"ppaassembler/internal/pregel"
	"ppaassembler/internal/testfs"
)

// ringCompute is a deterministic multi-superstep job (messages,
// aggregators, vote-to-halt) over primitive vertex/message types, so
// checkpoints take the binary codec path. Only the first ringActive
// vertices keep circulating tokens; the rest halt after superstep 0.
const ringActive = 6

func ringCompute(n, steps int) pregel.Compute[int64, int64] {
	return func(ctx *pregel.Context[int64], id pregel.VertexID, v *int64, msgs []int64) {
		for _, m := range msgs {
			*v += m
		}
		*v += ctx.PrevAggSum("acc") % 7
		if uint64(id) >= ringActive || ctx.Superstep() >= steps {
			ctx.VoteToHalt()
			return
		}
		ctx.AggSum("acc", *v)
		ctx.Send(pregel.VertexID((uint64(id)+1)%ringActive), *v+int64(ctx.Superstep()))
	}
}

func buildRing(cfg pregel.Config, n int) *pregel.Graph[int64, int64] {
	g := pregel.NewGraph[int64, int64](cfg)
	for i := 0; i < n; i++ {
		g.AddVertex(pregel.VertexID(i), int64(i)+1)
	}
	return g
}

func ringVals(g *pregel.Graph[int64, int64]) map[pregel.VertexID]int64 {
	out := map[pregel.VertexID]int64{}
	g.ForEach(func(id pregel.VertexID, v *int64) { out[id] = *v })
	return out
}

func sameVals(t *testing.T, label string, want, got map[pregel.VertexID]int64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vertices, want %d", label, len(got), len(want))
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("%s: vertex %d = %d, want %d", label, id, got[id], w)
		}
	}
}

const ringN, ringSteps = 48, 9

// ringBaseline runs the job with no checkpointing at all and returns the
// ground-truth final values.
func ringBaseline(t *testing.T) map[pregel.VertexID]int64 {
	t.Helper()
	g := buildRing(pregel.Config{Workers: 4}, ringN)
	if _, err := g.Run(ringCompute(ringN, ringSteps)); err != nil {
		t.Fatal(err)
	}
	return ringVals(g)
}

// checkpointedRun executes the job on fs with a testfs-backed
// DirCheckpointer and returns the final values. resume runs with
// Config.Resume; warn collects engine diagnostics.
func checkpointedRun(fs *testfs.FS, resume bool, warn func(string)) (map[pregel.VertexID]int64, error) {
	store, err := pregel.NewDirCheckpointerOpts("/ck", pregel.DirStoreOptions{FS: fs})
	if err != nil {
		return nil, err
	}
	g := buildRing(pregel.Config{
		Workers:         4,
		CheckpointEvery: 3,
		Checkpointer:    store,
		Resume:          resume,
		Warn:            warn,
	}, ringN)
	if _, err := g.Run(ringCompute(ringN, ringSteps), pregel.WithName("ring")); err != nil {
		return nil, err
	}
	return ringVals(g), nil
}

// TestTornTailWalkBack is the torn-tail crash-matrix leg: truncate the
// newest checkpoint artifact at every section boundary (and a byte past
// each, catching mid-section tears) and require a resumed run to walk back
// to the previous intact snapshot and finish byte-identical — with a
// warning naming the damaged file, never silently.
func TestTornTailWalkBack(t *testing.T) {
	want := ringBaseline(t)
	t.Run("full", func(t *testing.T) {
		base := testfs.New()
		if _, err := checkpointedRun(base, false, func(string) {}); err != nil {
			t.Fatal(err)
		}
		rep, err := pregel.VerifyCheckpointDirFS("/ck", base)
		if err != nil {
			t.Fatal(err)
		}
		if bad := rep.Corrupt(); len(bad) != 0 {
			t.Fatalf("clean run left corrupt artifacts: %+v", bad)
		}
		// Newest artifact = the one holding the highest step.
		var newest pregel.CkptFileInfo
		for _, f := range rep.Files {
			if !f.Temp && f.Step > newest.Step {
				newest = f
			}
		}
		if newest.Name == "" || len(newest.SectionEnds) == 0 {
			t.Fatalf("no newest artifact found in %+v", rep.Files)
		}

		cuts := []int64{0}
		for _, end := range newest.SectionEnds {
			if end < newest.Bytes {
				cuts = append(cuts, end, end+1)
			}
		}
		cuts = append(cuts, newest.Bytes-1)
		for _, cut := range cuts {
			fs := base.Clone()
			if err := fs.Truncate("/ck/"+newest.Name, int(cut)); err != nil {
				t.Fatal(err)
			}
			var warns []string
			got, err := checkpointedRun(fs, true, func(msg string) { warns = append(warns, msg) })
			if err != nil {
				t.Fatalf("cut at %d: resume failed: %v", cut, err)
			}
			sameVals(t, fmt.Sprintf("cut at %d", cut), want, got)
			found := false
			for _, w := range warns {
				if strings.Contains(w, newest.Name) && strings.Contains(w, "corrupt") {
					found = true
				}
			}
			if !found {
				t.Errorf("cut at %d: no warning names the damaged artifact %s: %q", cut, newest.Name, warns)
			}
		}
	})
}

// TestDroppedFsyncCrashMatrix sweeps a lying disk across every fsync of a
// checkpointed run, crashes, and resumes. Each leg must end in one of two
// acceptable states: a resume identical to the baseline, or a loud
// refusal (every artifact corrupt) after which a fresh directory
// reproduces the baseline exactly.
func TestDroppedFsyncCrashMatrix(t *testing.T) {
	want := ringBaseline(t)

	clean := testfs.New()
	if _, err := checkpointedRun(clean, false, func(string) {}); err != nil {
		t.Fatal(err)
	}
	total := clean.Syncs()
	if total == 0 {
		t.Fatal("checkpointed run issued no syncs; the matrix would test nothing")
	}

	for k := 0; k <= total; k++ {
		fs := testfs.New()
		fs.DropSyncsAfter(k)
		if _, err := checkpointedRun(fs, false, func(string) {}); err != nil {
			t.Fatalf("k=%d: dropped syncs must look like success to the writer, got %v", k, err)
		}
		fs.Crash()
		got, err := checkpointedRun(fs, true, func(string) {})
		switch {
		case err == nil:
			sameVals(t, fmt.Sprintf("k=%d resume", k), want, got)
		case strings.Contains(err.Error(), "failed integrity verification"):
			// Loud refusal is acceptable; deleting the directory and rerunning
			// must then reproduce the baseline.
			fresh := testfs.New()
			got, err := checkpointedRun(fresh, false, func(string) {})
			if err != nil {
				t.Fatalf("k=%d: rerun after refusal: %v", k, err)
			}
			sameVals(t, fmt.Sprintf("k=%d rerun", k), want, got)
		default:
			t.Fatalf("k=%d: resume failed with neither success nor a loud integrity refusal: %v", k, err)
		}
	}
}

// TestCrashBetweenWriteAndRename sweeps an op-granular crash across the
// whole run — every Write/Sync/Rename/SyncDir boundary of the commit
// protocol, including the gap between writing the temp file and renaming
// it into place. After the crash, a resumed run must reproduce the
// baseline; stray temp files must never be mistaken for checkpoints.
func TestCrashBetweenWriteAndRename(t *testing.T) {
	want := ringBaseline(t)
	for n := 0; ; n++ {
		fs := testfs.New()
		fs.FailAfterOps(n)
		_, err := checkpointedRun(fs, false, func(string) {})
		if err != nil && !errors.Is(err, testfs.ErrInjected) {
			t.Fatalf("n=%d: run failed with a non-injected error: %v", n, err)
		}
		injected := err != nil
		fs.Crash()
		got, rerr := checkpointedRun(fs, true, func(string) {})
		if rerr != nil {
			t.Fatalf("n=%d: resume after crash: %v", n, rerr)
		}
		sameVals(t, fmt.Sprintf("n=%d", n), want, got)
		if !injected {
			// The fault budget outlasted the whole run; the matrix is done.
			break
		}
	}
}

// TestDurabilityNoneSkipsFsync: the escape hatch really does elide every
// sync (and the default really does sync).
func TestDurabilityNoneSkipsFsync(t *testing.T) {
	run := func(d pregel.Durability) int {
		fs := testfs.New()
		store, err := pregel.NewDirCheckpointerOpts("/ck", pregel.DirStoreOptions{FS: fs, Durability: d})
		if err != nil {
			t.Fatal(err)
		}
		g := buildRing(pregel.Config{Workers: 4, CheckpointEvery: 3, Checkpointer: store}, ringN)
		if _, err := g.Run(ringCompute(ringN, ringSteps)); err != nil {
			t.Fatal(err)
		}
		return fs.Syncs()
	}
	if n := run(pregel.DurabilityNone); n != 0 {
		t.Errorf("DurabilityNone issued %d syncs, want 0", n)
	}
	if n := run(pregel.DurabilityFull); n == 0 {
		t.Error("DurabilityFull issued no syncs")
	}
}

// TestResumeAfterPartialRunTornTail combines process death with a torn
// tail: kill the run mid-flight via the fault plan, tear the newest
// artifact, and the restarted process must still converge on the baseline.
func TestResumeAfterPartialRunTornTail(t *testing.T) {
	want := ringBaseline(t)
	clean := testfs.New()
	if _, err := checkpointedRun(clean, false, func(string) {}); err != nil {
		t.Fatal(err)
	}
	fs := testfs.New()
	store, err := pregel.NewDirCheckpointerOpts("/ck", pregel.DirStoreOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	// A budget of 3/5 of a clean run's write volume guarantees the run dies
	// partway through some checkpoint write, leaving a torn temp or final
	// file.
	fs.FailAfterBytes(clean.BytesWritten() * 3 / 5)
	g := buildRing(pregel.Config{Workers: 4, CheckpointEvery: 3, Checkpointer: store}, ringN)
	if _, err := g.Run(ringCompute(ringN, ringSteps), pregel.WithName("ring")); !errors.Is(err, testfs.ErrInjected) {
		t.Fatalf("run under a byte budget below its write volume: %v, want ErrInjected", err)
	}
	fs.Crash()
	got, err := checkpointedRun(fs, true, func(string) {})
	if err != nil {
		t.Fatalf("resume after torn-tail crash: %v", err)
	}
	sameVals(t, "torn tail", want, got)
}
