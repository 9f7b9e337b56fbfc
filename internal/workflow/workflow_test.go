package workflow

import (
	"errors"
	"strings"
	"testing"

	"ppaassembler/internal/pregel"
	"ppaassembler/internal/telemetry"
)

// fakeState records what the fake ops observed at run time.
type fakeState struct {
	ran      []string
	prefixes []string
	clocks   []*pregel.SimClock
}

// fakeOp is a configurable catalog entry for engine tests.
type fakeOp struct {
	name     string
	needs    []Artifact
	produces []Artifact
	consumes []Artifact
	fail     error
}

func (o fakeOp) Info() Info {
	return Info{Name: o.name, Needs: o.needs, Produces: o.produces, Consumes: o.consumes}
}

func (o fakeOp) Run(env *Env, st *fakeState) error {
	st.ran = append(st.ran, o.name)
	st.prefixes = append(st.prefixes, env.JobPrefix)
	st.clocks = append(st.clocks, env.Clock)
	return o.fail
}

func TestPlanValidatesArtifactFlow(t *testing.T) {
	p := NewPlan[fakeState](Artifact("reads")).
		Then(fakeOp{name: "build", needs: []Artifact{"reads"}, produces: []Artifact{"graph"}}).
		Then(fakeOp{name: "label", needs: []Artifact{"graph"}, produces: []Artifact{"labels"}}).
		Then(fakeOp{name: "merge", needs: []Artifact{"graph", "labels"},
			consumes: []Artifact{"labels"}, produces: []Artifact{"contigs"}})
	if err := p.Err(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if !p.Provides("contigs") || !p.Provides("graph") {
		t.Error("plan should end with contigs and graph live")
	}
	if p.Provides("labels") {
		t.Error("labels were consumed by merge but still reported live")
	}
	if got := p.String(); got != "build,label,merge" {
		t.Errorf("plan spec = %q", got)
	}
}

func TestPlanRejectsMissingArtifact(t *testing.T) {
	p := NewPlan[fakeState](Artifact("reads")).
		Then(fakeOp{name: "build", needs: []Artifact{"reads"}, produces: []Artifact{"graph"}}).
		Then(fakeOp{name: "merge", needs: []Artifact{"graph", "labels"}})
	err := p.Err()
	if err == nil {
		t.Fatal("plan with missing artifact accepted")
	}
	for _, want := range []string{"merge", `"labels"`, "graph, reads"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
	// The poisoned plan must refuse to run and ignore further ops.
	p.Then(fakeOp{name: "late"})
	st := &fakeState{}
	if runErr := p.Run(&Env{Config: pregel.Config{Workers: 2}}, st); !errors.Is(runErr, err) && runErr == nil {
		t.Fatal("poisoned plan ran anyway")
	}
	if len(st.ran) != 0 {
		t.Errorf("poisoned plan executed ops: %v", st.ran)
	}
}

func TestPlanRejectsConsumedArtifact(t *testing.T) {
	p := NewPlan[fakeState](Artifact("graph"), Artifact("labels")).
		Then(fakeOp{name: "stage", consumes: []Artifact{"labels"}}).
		Then(fakeOp{name: "merge", needs: []Artifact{"graph", "labels"}})
	if p.Err() == nil {
		t.Fatal("plan reading a consumed artifact accepted")
	}
}

func TestPlanRunAssignsDeterministicJobPrefixes(t *testing.T) {
	p := NewPlan[fakeState]().
		Then(fakeOp{name: "build"}).
		Then(fakeOp{name: "tip trim!"})
	st := &fakeState{}
	if err := p.Run(&Env{Config: pregel.Config{Workers: 2}}, st); err != nil {
		t.Fatal(err)
	}
	want := []string{"s00.build.", "s01.tip_trim_."}
	for i, w := range want {
		if st.prefixes[i] != w {
			t.Errorf("op %d prefix = %q, want %q", i, st.prefixes[i], w)
		}
	}
}

func TestPlanRunNormalizesEnv(t *testing.T) {
	env := &Env{Config: pregel.Config{Workers: 3, CheckpointEvery: 2}}
	st := &fakeState{}
	p := NewPlan[fakeState]().Then(fakeOp{name: "a"}).Then(fakeOp{name: "b"})
	if err := p.Run(env, st); err != nil {
		t.Fatal(err)
	}
	if env.Clock == nil {
		t.Error("Run did not install a clock")
	}
	if env.Checkpointer == nil {
		t.Error("Run did not install a checkpoint store for CheckpointEvery > 0")
	}
	if st.clocks[0] == nil || st.clocks[0] != st.clocks[1] {
		t.Error("ops did not share one clock")
	}
	if env.Workers != 3 || env.CheckpointEvery != 2 {
		t.Errorf("Run changed the configuration: %+v", env.Config)
	}
	if env.JobPrefix != "" {
		t.Errorf("JobPrefix = %q after the plan finished, want it cleared", env.JobPrefix)
	}
}

func TestPlanRunValidatesConfigEarly(t *testing.T) {
	for _, env := range []*Env{
		{Config: pregel.Config{Workers: 0}},
		{Config: pregel.Config{Workers: -4}},
		{Config: pregel.Config{Workers: 2, CheckpointEvery: -1}},
		{Config: pregel.Config{Workers: 2, Resume: true}},
	} {
		st := &fakeState{}
		err := NewPlan[fakeState]().Then(fakeOp{name: "a"}).Run(env, st)
		if err == nil {
			t.Errorf("env %+v accepted", env)
		}
		if len(st.ran) != 0 {
			t.Errorf("env %+v: ops ran despite invalid config", env)
		}
	}
}

func TestPlanRunWrapsOpErrors(t *testing.T) {
	boom := errors.New("boom")
	p := NewPlan[fakeState]().
		Then(fakeOp{name: "ok"}).
		Then(fakeOp{name: "bad", fail: boom})
	env := &Env{Config: pregel.Config{Workers: 1}}
	err := p.Run(env, &fakeState{})
	if !errors.Is(err, boom) {
		t.Fatalf("op error not propagated: %v", err)
	}
	if env.JobPrefix != "" {
		t.Errorf("JobPrefix = %q after the plan failed, want it cleared", env.JobPrefix)
	}
	if !strings.Contains(err.Error(), "op 1 (bad)") {
		t.Errorf("error %q does not name the failing op", err)
	}
}

func TestEmptyPlanErrors(t *testing.T) {
	if err := NewPlan[fakeState]().Run(&Env{Config: pregel.Config{Workers: 1}}, &fakeState{}); err == nil {
		t.Fatal("empty plan ran")
	}
}

// allocSink keeps allocOp's buffer reachable so the allocation happens.
var allocSink []byte

// allocOp allocates n bytes on the heap.
type allocOp struct{ n int }

func (allocOp) Info() Info { return Info{Name: "alloc"} }

func (o allocOp) Run(*Env, *fakeState) error {
	allocSink = make([]byte, o.n)
	return nil
}

// TestOpEndSpanCarriesMemory: with a tracer set, each op's End span carries
// what the op allocated, its GC CPU time and its peak live heap as measured
// args, which stay out
// of the span's signature; the Begin span carries none of them.
func TestOpEndSpanCarriesMemory(t *testing.T) {
	const n = 1 << 20
	rec := telemetry.NewRecorder()
	if err := NewPlan[fakeState]().Then(allocOp{n: n}).Run(&Env{Config: pregel.Config{Workers: 1, Tracer: rec}}, &fakeState{}); err != nil {
		t.Fatal(err)
	}
	var ends int
	for _, e := range rec.Events() {
		if e.Name != "op" {
			continue
		}
		got := map[string]int64{}
		for _, a := range e.Args {
			if a.Measured {
				got[a.Key] = a.Int
			}
		}
		if e.Kind == telemetry.KindBegin {
			if len(got) != 0 {
				t.Errorf("op Begin span carries measured args %v", got)
			}
			continue
		}
		ends++
		if got["alloc_bytes"] < n || got["alloc_objects"] < 1 {
			t.Errorf("op End span: %v, want alloc_bytes >= %d and alloc_objects >= 1", got, n)
		}
		if v, ok := got["gc_cpu_ns"]; !ok || v < 0 {
			t.Errorf("op End span: gc_cpu_ns = %d (present %v)", v, ok)
		}
		if v, ok := got["heap_live_max_bytes"]; !ok || v < 0 {
			t.Errorf("op End span: heap_live_max_bytes = %d (present %v)", v, ok)
		}
		if sig := e.Signature(); sig != "E|workflow|op|op=alloc" {
			t.Errorf("op End signature = %q", sig)
		}
	}
	if ends != 1 {
		t.Fatalf("%d op End spans, want 1", ends)
	}
}
