package main

import (
	"strings"
	"testing"
)

// healthyArtifact is a baseline-shaped artifact with no regressions in it:
// binary snapshot smaller than gob, parallel traffic matches sequential,
// pipeline rows present.
func healthyArtifact() artifact {
	a := artifact{
		NumCPU:               4,
		GoMaxProcs:           4,
		ParallelSpeedup:      1.8,
		ParallelSpeedupValid: true,
	}
	a.Sequential = shuffleRow{NsPerOp: 100_000, AllocsPerOp: 1000, BytesPerOp: 50_000, LocalMsgs: 240, RemoteMsgs: 720}
	a.Parallel = shuffleRow{NsPerOp: 55_000, AllocsPerOp: 1100, BytesPerOp: 52_000, LocalMsgs: 240, RemoteMsgs: 720}
	a.CheckpointIO = checkpointIO{Saves: 19, Restores: 0, BytesWritten: 1 << 20}
	a.CheckpointThroughput = codecStats{
		FullBytes: 900_000, GobBytes: 1_200_000, DeltaBytes: 40_000, DeltaRatio: 0.04,
	}
	a.Pipeline = []pipelineRow{
		{Name: "hash", RemoteFraction: 0.74, NetSimSeconds: 2.0},
		{Name: "minimizer", RemoteFraction: 0.40, NetSimSeconds: 1.2},
	}
	a.Transport = transportRow{
		FramesSent: 120, BytesSent: 4 << 20, BytesReceived: 4 << 20,
		RemoteMessages: 720, MeasuredWireSeconds: 0.05, MeasuredOverPredicted: 0.7,
	}
	return a
}

func wantClean(t *testing.T, r report) {
	t.Helper()
	if len(r.regressions) != 0 {
		t.Fatalf("expected clean fence, got regressions: %v", r.regressions)
	}
}

func wantRegression(t *testing.T, r report, substr string) {
	t.Helper()
	for _, reg := range r.regressions {
		if strings.Contains(reg, substr) {
			return
		}
	}
	t.Fatalf("expected a regression mentioning %q, got: %v", substr, r.regressions)
}

func wantNote(t *testing.T, r report, substr string) {
	t.Helper()
	for _, n := range r.notes {
		if strings.Contains(n, substr) {
			return
		}
	}
	t.Fatalf("expected a note mentioning %q, got: %v", substr, r.notes)
}

func TestIdenticalArtifactsPass(t *testing.T) {
	a := healthyArtifact()
	wantClean(t, compare(a, a, 0.25))
}

func TestSmallDriftWithinThresholdPasses(t *testing.T) {
	base := healthyArtifact()
	cur := healthyArtifact()
	cur.Sequential.NsPerOp = base.Sequential.NsPerOp * 110 / 100 // +10% < 25%
	cur.Sequential.AllocsPerOp = base.Sequential.AllocsPerOp * 105 / 100
	wantClean(t, compare(base, cur, 0.25))
}

func TestAllocRegressionCaughtRegardlessOfHost(t *testing.T) {
	base := healthyArtifact()
	cur := healthyArtifact()
	cur.NumCPU, cur.GoMaxProcs = 1, 1 // different host: time comparisons skipped...
	cur.ParallelSpeedupValid = false
	cur.Parallel.AllocsPerOp = base.Parallel.AllocsPerOp * 2 // ...but allocs are not
	r := compare(base, cur, 0.25)
	wantRegression(t, r, "parallel allocs/op")
	wantNote(t, r, "skipping ns/op comparison")
}

func TestNsPerOpComparedOnlyOnMatchingHost(t *testing.T) {
	base := healthyArtifact()
	cur := healthyArtifact()
	cur.Sequential.NsPerOp = base.Sequential.NsPerOp * 3 // way past threshold
	wantRegression(t, compare(base, cur, 0.25), "sequential ns/op")

	cur.GoMaxProcs = 8 // now hosts differ: same 3x slowdown must be skipped, not failed
	cur.ParallelSpeedup = 2.5
	r := compare(base, cur, 0.25)
	for _, reg := range r.regressions {
		if strings.Contains(reg, "ns/op") {
			t.Fatalf("ns/op compared across mismatched hosts: %v", r.regressions)
		}
	}
	wantNote(t, r, "skipping ns/op comparison")
}

func TestScheduleTrafficDivergenceFails(t *testing.T) {
	base := healthyArtifact()
	cur := healthyArtifact()
	cur.Parallel.RemoteMsgs++ // the schedule must never change traffic
	wantRegression(t, compare(base, cur, 0.25), "determinism contract")
}

// TestCodecMustBeatGobAnywhere: a binary snapshot no smaller than the gob
// one fails on any host; the codec's measured speed is not gated at all.
func TestCodecMustBeatGobAnywhere(t *testing.T) {
	base := healthyArtifact()
	cur := healthyArtifact()
	cur.NumCPU, cur.GoMaxProcs = 1, 1 // even on a mismatched host
	cur.ParallelSpeedupValid = false
	cur.CheckpointThroughput.GobBytes = cur.CheckpointThroughput.FullBytes
	wantRegression(t, compare(base, cur, 0.25), "not smaller than gob")
}

func TestDeltaRatioGrowthFails(t *testing.T) {
	base := healthyArtifact()
	cur := healthyArtifact()
	cur.CheckpointThroughput.DeltaRatio = base.CheckpointThroughput.DeltaRatio * 2
	wantRegression(t, compare(base, cur, 0.25), "delta_ratio")
}

func TestPipelineLocalityRegressionFails(t *testing.T) {
	base := healthyArtifact()
	cur := healthyArtifact()
	cur.Pipeline[1].RemoteFraction = 0.70 // minimizer locality collapses toward hash
	wantRegression(t, compare(base, cur, 0.25), "minimizer remote_fraction")
}

func TestParallelSpeedupGateBindsOnlyWhenValid(t *testing.T) {
	base := healthyArtifact()

	cur := healthyArtifact()
	cur.ParallelSpeedup = 0.8 // valid 4-core host claiming a slowdown: fail
	wantRegression(t, compare(base, cur, 0.25), "not faster than sequential")

	cur = healthyArtifact()
	cur.NumCPU, cur.GoMaxProcs = 1, 1
	cur.ParallelSpeedupValid = false
	cur.ParallelSpeedup = 0.8 // single-core ratio is noise: note, not failure
	r := compare(base, cur, 0.25)
	for _, reg := range r.regressions {
		if strings.Contains(reg, "not faster than sequential") {
			t.Fatalf("speedup gate bound on an invalid measurement: %v", r.regressions)
		}
	}
	wantNote(t, r, "skipping parallel-speedup gate")
}

func TestParallelSpeedupGateSkippedOnInvalidBaseline(t *testing.T) {
	// The committed baseline was once recorded on a 1-CPU bench host with a
	// meaningless 0.92x ratio; a perfectly healthy current artifact must not
	// be gated against that noise.
	base := healthyArtifact()
	base.NumCPU, base.GoMaxProcs = 1, 1
	base.ParallelSpeedupValid = false
	base.ParallelSpeedup = 0.92
	cur := healthyArtifact()
	cur.ParallelSpeedup = 0.8 // would fail the gate if it bound
	r := compare(base, cur, 0.25)
	for _, reg := range r.regressions {
		if strings.Contains(reg, "not faster than sequential") {
			t.Fatalf("speedup gate bound against an invalid baseline: %v", r.regressions)
		}
	}
	wantNote(t, r, "skipping parallel-speedup gate")
	wantNote(t, r, "baseline valid=false")
}

func TestTransportSectionDroppedFails(t *testing.T) {
	base := healthyArtifact()
	cur := healthyArtifact()
	cur.Transport = transportRow{}
	wantRegression(t, compare(base, cur, 0.25), "transport section vanished")
}

func TestTransportByteGrowthFails(t *testing.T) {
	base := healthyArtifact()
	cur := healthyArtifact()
	cur.Transport.BytesSent = base.Transport.BytesSent * 2 // frame/lane codec bloat
	wantRegression(t, compare(base, cur, 0.25), "transport bytes_sent")
}

func TestFaultFreeRestoreFails(t *testing.T) {
	base := healthyArtifact()
	cur := healthyArtifact()
	cur.CheckpointIO.Restores = 2
	wantRegression(t, compare(base, cur, 0.25), "restored")
}

func TestMissingBaselinePipelineRowIsNoted(t *testing.T) {
	base := healthyArtifact()
	base.Pipeline = base.Pipeline[:1] // baseline predates the minimizer row
	cur := healthyArtifact()
	r := compare(base, cur, 0.25)
	wantClean(t, r)
	wantNote(t, r, "no baseline row")
}

func TestZeroBaselineMetricIsNotedNotSilentlyPassed(t *testing.T) {
	base := healthyArtifact()
	base.CheckpointThroughput.DeltaRatio = 0 // baseline predates this metric
	cur := healthyArtifact()
	cur.CheckpointThroughput.DeltaRatio = 100 // would regress if gated
	r := compare(base, cur, 0.25)
	wantClean(t, r)
	wantNote(t, r, "skipped: checkpoint delta_ratio")
}

func TestDroppedMetricFailsInsteadOfReadingAsImprovement(t *testing.T) {
	base := healthyArtifact()
	cur := healthyArtifact()
	cur.Sequential.AllocsPerOp = 0 // emitter stopped measuring: not a perfect score
	wantRegression(t, compare(base, cur, 0.25), "sequential allocs/op vanished")
}

func TestDroppedPipelineRowFails(t *testing.T) {
	base := healthyArtifact()
	cur := healthyArtifact()
	cur.Pipeline = cur.Pipeline[:1] // current stopped measuring the minimizer leg
	wantRegression(t, compare(base, cur, 0.25), `"minimizer" present in the baseline but missing`)
}
