package pregel

import (
	"strings"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	good := Config{Workers: 4}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{}, "Workers"},
		{Config{Workers: -2}, "Workers"},
		{Config{Workers: 1, MessageBytes: -1}, "MessageBytes"},
		{Config{Workers: 1, MaxSupersteps: -1}, "MaxSupersteps"},
		{Config{Workers: 1, CheckpointEvery: -5}, "CheckpointEvery"},
		{Config{Workers: 1, Resume: true}, "Resume"},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if err == nil {
			t.Errorf("config %+v accepted", c.cfg)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("config %+v: error %q does not mention %s", c.cfg, err, c.want)
		}
	}
}

func TestMRConfigValidate(t *testing.T) {
	if err := (MRConfig{Workers: 2}).Validate(); err != nil {
		t.Fatalf("valid MR config rejected: %v", err)
	}
	if err := (MRConfig{}).Validate(); err == nil || !strings.Contains(err.Error(), "Workers") {
		t.Errorf("zero-worker MR config: %v", err)
	}
	if err := (MRConfig{Workers: 1, PairBytes: -8}).Validate(); err == nil || !strings.Contains(err.Error(), "PairBytes") {
		t.Errorf("negative PairBytes MR config: %v", err)
	}
}

// collidingStore is a Checkpointer whose NextJob ignores the reservation
// sequence — the kind of custom-store bug the duplicate-key guard exists
// for. Embedding MemCheckpointer gives it checkpoint storage plus the
// jobTracker hook the engine consults.
type collidingStore struct {
	*MemCheckpointer
}

func (s collidingStore) NextJob(name string) string { return "stuck-key" }

// TestDuplicateJobKeyFailsLoudly: two jobs reserving the same checkpoint
// key in one run must fail the second run instead of silently overwriting
// the first job's checkpoints (which would corrupt Resume).
func TestDuplicateJobKeyFailsLoudly(t *testing.T) {
	store := collidingStore{NewMemCheckpointer()}
	cfg := Config{Workers: 2, CheckpointEvery: 1, Checkpointer: store}
	noop := func(ctx *Context[int], id VertexID, v *int, msgs []int) { ctx.VoteToHalt() }

	g1 := NewGraph[int, int](cfg)
	g1.AddVertex(1, 0)
	if _, err := g1.Run(noop, WithName("first")); err != nil {
		t.Fatalf("first job: %v", err)
	}

	g2 := NewGraph[int, int](cfg)
	g2.AddVertex(2, 0)
	_, err := g2.Run(noop, WithName("second"))
	if err == nil {
		t.Fatal("second job reserved the same key and ran anyway")
	}
	if !strings.Contains(err.Error(), "stuck-key") || !strings.Contains(err.Error(), "reserved twice") {
		t.Errorf("error %q does not describe the duplicate key", err)
	}
}

// TestUniqueJobKeysAccepted: the built-in stores' seq-suffixed keys never
// collide, including many runs named identically on one shared store.
func TestUniqueJobKeysAccepted(t *testing.T) {
	store := NewMemCheckpointer()
	cfg := Config{Workers: 2, CheckpointEvery: 1, Checkpointer: store}
	noop := func(ctx *Context[int], id VertexID, v *int, msgs []int) { ctx.VoteToHalt() }
	for i := 0; i < 5; i++ {
		g := NewGraph[int, int](cfg)
		g.AddVertex(VertexID(i+1), 0)
		if _, err := g.Run(noop, WithName("same-name")); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

// TestJobPrefixInKeys: Config.JobPrefix lands in the reserved job keys, so
// workflow ops get self-describing, deterministic checkpoint names.
func TestJobPrefixInKeys(t *testing.T) {
	store := NewMemCheckpointer()
	cfg := Config{Workers: 1, CheckpointEvery: 1, Checkpointer: store, JobPrefix: "s03.tiptrim."}
	g := NewGraph[int, int](cfg)
	g.AddVertex(7, 0)
	noop := func(ctx *Context[int], id VertexID, v *int, msgs []int) { ctx.VoteToHalt() }
	st, err := g.Run(noop, WithName("remove-tips"))
	if err != nil {
		t.Fatal(err)
	}
	// The store releases a finished job's snapshot, so the keys are read
	// off its reservations.
	store.jobSet.mu.Lock()
	defer store.jobSet.mu.Unlock()
	for job := range store.reserved {
		if !strings.HasPrefix(job, "s03.tiptrim.remove-tips@") {
			t.Errorf("job key %q does not carry the sanitized prefix", job)
		}
	}
	if len(store.reserved) == 0 || st.CheckpointSaves == 0 {
		t.Fatal("no checkpoint saved")
	}
}
