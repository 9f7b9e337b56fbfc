package pregel

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ppaassembler/internal/transport"
)

// hubCompute is the skewed workload the adaptive tests migrate: vertices
// form clusters of k, members send every message to their cluster head and
// the head broadcasts back. Incoming traffic for a member therefore comes
// from exactly one source vertex — the head — so the solver has an
// unambiguous dominant worker to move each member to, and a static hash
// placement scatters clusters badly enough that migration has real remote
// traffic to eliminate.
func hubCompute(n, k uint64, iters int) Compute[int64, int64] {
	return func(ctx *Context[int64], id VertexID, v *int64, msgs []int64) {
		for _, m := range msgs {
			*v += m
		}
		if ctx.Superstep() >= iters {
			ctx.VoteToHalt()
			return
		}
		head := VertexID(uint64(id) / k * k)
		if id == head {
			for j := uint64(1); j < k; j++ {
				ctx.Send(head+VertexID(j), *v%1000+1)
			}
		} else {
			ctx.Send(head, *v%1000+1)
		}
	}
}

func buildHubGraph(cfg Config, n int) *Graph[int64, int64] {
	g := NewGraph[int64, int64](cfg)
	for i := 0; i < n; i++ {
		g.AddVertex(VertexID(i), int64(i)+1)
	}
	return g
}

func collectHub(g *Graph[int64, int64]) map[VertexID]int64 {
	out := map[VertexID]int64{}
	g.ForEach(func(id VertexID, v *int64) { out[id] = *v })
	return out
}

// TestRepartitionPolicyValidation: nonsensical policies are rejected at
// Run time, and defaults normalize the way the docs promise.
func TestRepartitionPolicyValidation(t *testing.T) {
	for _, pol := range []RepartitionPolicy{
		{Every: 0},
		{Every: -2},
		{Every: 3, Window: -1},
		{Every: 3, MaxMoves: -5},
	} {
		if err := (Config{Workers: 2, Repartition: &pol}).Validate(); err == nil {
			t.Errorf("policy %+v: expected a validation error", pol)
		}
	}
	// A broken cadence slips past Validate-skipping callers; Run must still
	// refuse it instead of dividing by zero in the window gate.
	for _, every := range []int{0, -2} {
		g := buildHubGraph(Config{Workers: 2, Repartition: &RepartitionPolicy{Every: every}}, 8)
		if _, err := g.Run(hubCompute(8, 4, 2)); err == nil {
			t.Errorf("Every=%d: expected a run error", every)
		}
	}
	p := RepartitionPolicy{Every: 3}.withDefaults()
	if p.Window != 3 || p.MaxMoves != DefaultMaxMoves {
		t.Errorf("withDefaults(Every:3) = %+v, want Window=3 MaxMoves=%d", p, DefaultMaxMoves)
	}
	if p := (RepartitionPolicy{Every: 2, Window: 9}).withDefaults(); p.Window != 2 {
		t.Errorf("Window above Every not clamped: %+v", p)
	}
}

// TestAdaptiveMatchesStaticMatrix is the placement-invariance contract for
// live migration: the same job with Repartition enabled — migrations
// actually committing — produces vertex values and run counters identical
// to the static run, across worker counts, both schedules and the loopback
// and wire transports.
func TestAdaptiveMatchesStaticMatrix(t *testing.T) {
	const n, iters = 96, 11
	modes := []struct {
		name     string
		parallel bool
	}{{"seq", false}, {"par", true}}
	for _, workers := range []int{1, 4, 7} {
		for _, mode := range modes {
			for _, wire := range []bool{false, true} {
				name := fmt.Sprintf("w%d-%s-wire%v", workers, mode.name, wire)
				t.Run(name, func(t *testing.T) {
					mkTx := func() transport.Transport {
						if wire {
							return transport.NewMemWire(workers)
						}
						return nil
					}
					static := buildPRGraph(Config{Workers: workers, Parallel: mode.parallel, Transport: mkTx()}, n)
					staticStats, err := static.Run(pageRankish(n, iters), WithName("adaptcheck"))
					if err != nil {
						t.Fatal(err)
					}
					want := collectPR(static)

					g := buildPRGraph(Config{
						Workers:     workers,
						Parallel:    mode.parallel,
						Transport:   mkTx(),
						Repartition: &RepartitionPolicy{Every: 2, MaxMoves: 256},
					}, n)
					stats, err := g.Run(pageRankish(n, iters), WithName("adaptcheck"))
					if err != nil {
						t.Fatal(err)
					}
					if got := collectPR(g); !reflect.DeepEqual(got, want) {
						t.Error("adaptive run's vertex values differ from the static run")
					}
					sameRunStats(t, "adaptive", staticStats, stats)
					if workers > 1 && stats.MigratedVertices == 0 {
						t.Error("adaptive run migrated nothing; the matrix is not exercising migration")
					}
					if workers == 1 && stats.Migrations != 0 {
						t.Errorf("single-worker run reported %d migrations", stats.Migrations)
					}
				})
			}
		}
	}
}

// TestAdaptiveReducesRemoteTraffic is the payoff claim: on the hub
// workload, hash placement plus adaptive migration must deliver the same
// answer as static hash with a strictly smaller remote-message share.
func TestAdaptiveReducesRemoteTraffic(t *testing.T) {
	const n, iters = 120, 12
	static := buildHubGraph(Config{Workers: 4}, n)
	staticStats, err := static.Run(hubCompute(n, 8, iters), WithName("hub"))
	if err != nil {
		t.Fatal(err)
	}
	want := collectHub(static)

	g := buildHubGraph(Config{
		Workers:     4,
		Repartition: &RepartitionPolicy{Every: 2, MaxMoves: 1000},
	}, n)
	stats, err := g.Run(hubCompute(n, 8, iters), WithName("hub"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(collectHub(g), want) {
		t.Fatal("adaptive hub run changed vertex values")
	}
	if stats.Migrations == 0 || stats.MigratedVertices == 0 || stats.MigrationBytes == 0 {
		t.Fatalf("expected committed migrations, got %+v", stats)
	}
	frac := func(s *Stats) float64 {
		return float64(s.RemoteMessages) / float64(s.LocalMessages+s.RemoteMessages)
	}
	sf, af := frac(staticStats), frac(stats)
	if af >= sf*0.9 {
		t.Errorf("adaptive remote fraction %.4f is not meaningfully below static %.4f", af, sf)
	}
	d, ok := g.cfg.Partitioner.(*DynamicPartitioner)
	if !ok {
		t.Fatal("Repartition did not wrap the partitioner in a DynamicPartitioner")
	}
	if d.Version() == 0 || d.Overrides() == 0 {
		t.Errorf("routing table empty after migrations: version=%d overrides=%d", d.Version(), d.Overrides())
	}
	if name := d.Name(); name != "adaptive(hash)" {
		t.Errorf("adaptive partitioner name = %q", name)
	}
}

// TestRoutingTableCodecRoundTrip: encode/decode is lossless, deterministic
// (sorted entries), empty tables encode to nothing, and damaged payloads
// surface as ErrCheckpointCorrupt.
func TestRoutingTableCodecRoundTrip(t *testing.T) {
	tab := &routingTable{version: 7, workers: 5, moved: map[VertexID]int32{
		3: 4, 900: 0, 17: 2, 1 << 40: 3, 18: 1,
	}}
	enc := appendRoutingTable(nil, tab)
	if len(enc) == 0 {
		t.Fatal("non-empty table encoded to nothing")
	}
	if enc2 := appendRoutingTable(nil, tab); !reflect.DeepEqual(enc, enc2) {
		t.Error("routing table encoding is not deterministic")
	}
	got, err := decodeRoutingTable(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.version != tab.version || got.workers != tab.workers || !reflect.DeepEqual(got.moved, tab.moved) {
		t.Errorf("round trip mismatch: got %+v want %+v", got, tab)
	}

	if b := appendRoutingTable(nil, nil); b != nil {
		t.Errorf("nil table encoded %d bytes", len(b))
	}
	if b := appendRoutingTable(nil, &routingTable{version: 3, workers: 2, moved: map[VertexID]int32{}}); b != nil {
		t.Errorf("empty table encoded %d bytes", len(b))
	}
	if got, err := decodeRoutingTable(nil); err != nil || got != nil {
		t.Errorf("decode(nil) = %+v, %v", got, err)
	}

	for name, data := range map[string][]byte{
		"truncated": enc[:len(enc)-1],
		"trailing":  append(append([]byte{}, enc...), 0),
		"badworker": AppendUvarint(AppendUvarint(AppendUvarint(nil, 1), 2), 1e6),
	} {
		if _, err := decodeRoutingTable(data); err == nil {
			t.Errorf("%s payload decoded without error", name)
		}
	}
}

// FuzzRoutingTableCodec: arbitrary bytes either fail to decode or decode
// to a table that re-encodes canonically and round-trips.
func FuzzRoutingTableCodec(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(appendRoutingTable(nil, &routingTable{version: 2, workers: 3, moved: map[VertexID]int32{5: 1, 9: 2}}))
	f.Add([]byte{1, 4, 2, 0, 1, 3, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := decodeRoutingTable(data)
		if err != nil {
			return
		}
		enc := appendRoutingTable(nil, tab)
		got, err := decodeRoutingTable(enc)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if tab == nil {
			if got != nil {
				t.Fatal("nil table re-decoded non-nil")
			}
			return
		}
		if got.version != tab.version || got.workers != tab.workers || !reflect.DeepEqual(got.moved, tab.moved) {
			t.Fatalf("canonical round trip diverged: %+v vs %+v", got, tab)
		}
	})
}

// TestMigrationCrashMatrix kills each worker's depot at each superstep of
// an adaptive wire run — including the migration decision boundaries,
// where the first lane fetched at the trigger step is a migration payload,
// so the loss lands mid-transfer — and every recovery must replay to the
// unfailed adaptive run's exact values and counters.
func TestMigrationCrashMatrix(t *testing.T) {
	const n, iters = 120, 9
	pol := &RepartitionPolicy{Every: 2, MaxMoves: 1000}
	base := buildHubGraph(Config{Workers: 4, Transport: transport.NewMemWire(4), Repartition: pol}, n)
	baseStats, err := base.Run(hubCompute(n, 8, iters), WithName("migcrash"))
	if err != nil {
		t.Fatal(err)
	}
	if baseStats.MigratedVertices == 0 {
		t.Fatal("baseline adaptive run migrated nothing; the crash matrix would not cover migration")
	}
	want := collectHub(base)

	for trigger := 2; trigger <= 6; trigger++ {
		for victim := 0; victim < 4; victim++ {
			t.Run(fmt.Sprintf("step%d-victim%d", trigger, victim), func(t *testing.T) {
				tx := &droppingTransport{
					MemWire:     transport.NewMemWire(4),
					triggerStep: trigger,
					victim:      victim,
				}
				g := buildHubGraph(Config{
					Workers:         4,
					Transport:       tx,
					Repartition:     pol,
					CheckpointEvery: 3,
				}, n)
				stats, err := g.Run(hubCompute(n, 8, iters), WithName("migcrash"))
				if err != nil {
					t.Fatal(err)
				}
				if stats.Recoveries != 1 {
					t.Fatalf("expected 1 recovery, got %d", stats.Recoveries)
				}
				if !reflect.DeepEqual(collectHub(g), want) {
					t.Error("recovered adaptive run diverged from the unfailed run")
				}
				sameRunStats(t, "recovered", baseStats, stats)
				if stats.MigratedVertices == 0 {
					t.Error("recovered run reports no migrated vertices")
				}
			})
		}
	}
}

// TestAdaptiveFaultInjectionMatchesStatic runs the injected-crash path
// (FaultPlan, loopback shuffle) under migration: rollback must restore the
// pre-migration routing table from the checkpoint and deterministically
// replay the same migration decisions, landing on the static answer.
func TestAdaptiveFaultInjectionMatchesStatic(t *testing.T) {
	const n, iters = 120, 9
	static := buildHubGraph(Config{Workers: 4}, n)
	if _, err := static.Run(hubCompute(n, 8, iters), WithName("migfault")); err != nil {
		t.Fatal(err)
	}
	want := collectHub(static)

	for failAt := 1; failAt <= 6; failAt++ {
		g := buildHubGraph(Config{
			Workers:         4,
			CheckpointEvery: 3,
			Repartition:     &RepartitionPolicy{Every: 2, MaxMoves: 1000},
			Faults:          NewFaultPlan(Fault{Round: failAt, Worker: failAt % 4}),
		}, n)
		stats, err := g.Run(hubCompute(n, 8, iters), WithName("migfault"))
		if err != nil {
			t.Fatalf("fail@%d: %v", failAt, err)
		}
		if stats.Recoveries != 1 {
			t.Fatalf("fail@%d: %d recoveries, want 1", failAt, stats.Recoveries)
		}
		if !reflect.DeepEqual(collectHub(g), want) {
			t.Errorf("fail@%d: recovered adaptive values differ from static run", failAt)
		}
	}
}

// TestAdaptiveResumeRestoresRouting simulates coordinator death and
// restart: an adaptive run checkpoints to disk (PPCK v7 carries the
// routing table), a second process resumes, and the restored run must
// fast-forward with placement — the routing-table overrides — intact,
// finishing with the same values and migration counters.
func TestAdaptiveResumeRestoresRouting(t *testing.T) {
	const n, iters = 120, 9
	dir := t.TempDir()
	pol := &RepartitionPolicy{Every: 2, MaxMoves: 1000}

	store1, err := NewDirCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	g1 := buildHubGraph(Config{Workers: 4, CheckpointEvery: 3, Checkpointer: store1, Repartition: pol}, n)
	stats1, err := g1.Run(hubCompute(n, 8, iters), WithName("migresume"))
	if err != nil {
		t.Fatal(err)
	}
	if stats1.MigratedVertices == 0 {
		t.Fatal("original run migrated nothing")
	}
	want := collectHub(g1)

	store2, err := NewDirCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	d2 := AsDynamic(HashPartitioner{})
	g2 := buildHubGraph(Config{
		Workers: 4, CheckpointEvery: 3, Checkpointer: store2, Resume: true,
		Partitioner: d2, Repartition: pol,
	}, n)
	stats2, err := g2.Run(hubCompute(n, 8, iters), WithName("migresume"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(collectHub(g2), want) {
		t.Error("resumed adaptive run produced different vertex values")
	}
	if d2.Overrides() == 0 || d2.Version() == 0 {
		t.Errorf("resume did not restore the routing table: version=%d overrides=%d", d2.Version(), d2.Overrides())
	}
	if stats2.Migrations != stats1.Migrations || stats2.MigratedVertices != stats1.MigratedVertices ||
		stats2.MigrationBytes != stats1.MigrationBytes {
		t.Errorf("migration counters diverged on resume: got %d/%d/%d want %d/%d/%d",
			stats2.Migrations, stats2.MigratedVertices, stats2.MigrationBytes,
			stats1.Migrations, stats1.MigratedVertices, stats1.MigrationBytes)
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, "migresume@*.ckpt")); len(matches) == 0 {
		t.Error("no on-disk checkpoints for the adaptive job")
	}

	// Resuming the adaptive checkpoints under a static partitioner must
	// fail the placement-identity check by name, not scatter state.
	store3, err := NewDirCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	g3 := buildHubGraph(Config{Workers: 4, CheckpointEvery: 3, Checkpointer: store3, Resume: true}, n)
	if _, err := g3.Run(hubCompute(n, 8, iters), WithName("migresume")); err == nil {
		t.Error("static resume over an adaptive checkpoint succeeded; want a partitioner mismatch error")
	} else if !strings.Contains(err.Error(), "partitioner") {
		t.Errorf("mismatch error does not mention the partitioner: %v", err)
	}
}

// TestTransportFrameSymmetry pins the counter contract: FramesSent and
// FramesRecv meter data-plane lane frames only, so for any completed run —
// static or adaptive, with migration payloads riding the same lanes — the
// two are equal.
func TestTransportFrameSymmetry(t *testing.T) {
	const n, iters = 96, 11
	for _, adaptive := range []bool{false, true} {
		tx := transport.NewMemWire(4)
		cfg := Config{Workers: 4, Transport: tx}
		if adaptive {
			cfg.Repartition = &RepartitionPolicy{Every: 2, MaxMoves: 256}
		}
		g := buildPRGraph(cfg, n)
		if _, err := g.Run(pageRankish(n, iters), WithName("framesym")); err != nil {
			t.Fatal(err)
		}
		c := tx.Counters()
		if c.FramesSent == 0 || c.FramesRecv == 0 {
			t.Fatalf("adaptive=%v: no lane frames metered: %+v", adaptive, c)
		}
		if c.FramesSent != c.FramesRecv {
			t.Errorf("adaptive=%v: frame counters asymmetric: sent %d recv %d", adaptive, c.FramesSent, c.FramesRecv)
		}
	}
}
