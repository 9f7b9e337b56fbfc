package pregel

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"ppaassembler/internal/transport"
)

// TestTransportMemWireMatchesLoopback is the engine-level determinism
// contract for the wire path: the same job over the loopback shuffle (nil
// transport and the explicit mem transport) and over memwire — where every
// remote lane is encoded, framed, CRC-checked and decoded — must produce
// bit-identical vertex values, aggregates and run counters, for every
// worker count and Parallel mode.
func TestTransportMemWireMatchesLoopback(t *testing.T) {
	const n, iters = 96, 11
	for _, workers := range []int{1, 4, 7} {
		for _, parallel := range []bool{false, true} {
			t.Run(fmt.Sprintf("w%d-par%v", workers, parallel), func(t *testing.T) {
				base := buildPRGraph(Config{Workers: workers, Parallel: parallel}, n)
				baseStats, err := base.Run(pageRankish(n, iters), WithName("wirecheck"))
				if err != nil {
					t.Fatal(err)
				}
				want := collectPR(base)

				for _, tx := range []transport.Transport{
					transport.NewMem(workers),
					transport.NewMemWire(workers),
				} {
					g := buildPRGraph(Config{Workers: workers, Parallel: parallel, Transport: tx}, n)
					stats, err := g.Run(pageRankish(n, iters), WithName("wirecheck"))
					if err != nil {
						t.Fatalf("transport %q: %v", tx.Name(), err)
					}
					if got := collectPR(g); !reflect.DeepEqual(got, want) {
						t.Errorf("transport %q: vertex values differ from loopback run", tx.Name())
					}
					sameRunStats(t, "transport "+tx.Name(), baseStats, stats)
				}
			})
		}
	}
}

// plainMsg has no binary value codec.
type plainMsg struct {
	Share int64
	Hops  int32
}

// TestRunRefusesTypesWithoutCodec: a run that must encode its values — a
// codec-less message type over memwire, a codec-less vertex type with
// checkpoints — fails before superstep 0 with an error naming the type,
// and leaves the graph untouched. The same types run in memory with no
// checkpoints and no wire transport.
func TestRunRefusesTypesWithoutCodec(t *testing.T) {
	const n = 64
	compute := func(ctx *Context[plainMsg], id VertexID, v *plainMsg, msgs []plainMsg) {
		for _, m := range msgs {
			v.Share += m.Share + int64(m.Hops)
		}
		if ctx.Superstep() >= 5 {
			ctx.VoteToHalt()
			return
		}
		ctx.Send(VertexID((uint64(id)+3)%n), plainMsg{Share: v.Share % 97, Hops: int32(ctx.Superstep())})
	}
	build := func(cfg Config) *Graph[plainMsg, plainMsg] {
		g := NewGraph[plainMsg, plainMsg](cfg)
		for i := 0; i < n; i++ {
			g.AddVertex(VertexID(i), plainMsg{Share: int64(i)})
		}
		return g
	}
	sum := func(g *Graph[plainMsg, plainMsg]) (s int64) {
		g.ForEach(func(_ VertexID, v *plainMsg) { s += v.Share })
		return s
	}
	untouched := sum(build(Config{Workers: 4}))
	for name, cfg := range map[string]Config{
		"memwire":    {Workers: 4, Transport: transport.NewMemWire(4)},
		"checkpoint": {Workers: 4, CheckpointEvery: 2},
	} {
		g := build(cfg)
		_, err := g.Run(compute, WithName("nocodec"))
		if err == nil {
			t.Errorf("%s: a codec-less run was accepted", name)
			continue
		}
		for _, want := range []string{"vertex type pregel.plainMsg", "message type pregel.plainMsg"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error does not name the %s: %v", name, want, err)
			}
		}
		if got := sum(g); got != untouched {
			t.Errorf("%s: refused run changed vertex values (sum %d, want %d)", name, got, untouched)
		}
	}
	// Only the offending type is named.
	m := NewGraph[int64, plainMsg](Config{Workers: 4, Transport: transport.NewMemWire(4)})
	m.AddVertex(1, 0)
	if _, err := m.Run(func(ctx *Context[plainMsg], _ VertexID, _ *int64, _ []plainMsg) { ctx.VoteToHalt() }); err == nil ||
		strings.Contains(err.Error(), "vertex type") || !strings.Contains(err.Error(), "message type pregel.plainMsg") {
		t.Errorf("codec-less message type over memwire: %v", err)
	}

	var want int64
	for i, tx := range []transport.Transport{nil, transport.NewMem(4)} {
		g := build(Config{Workers: 4, Transport: tx})
		if _, err := g.Run(compute, WithName("nocodec")); err != nil {
			t.Fatalf("in-memory run without checkpoints: %v", err)
		}
		if got := sum(g); i == 0 {
			want = got
		} else if got != want {
			t.Errorf("loopback mem transport: sum %d, nil transport %d", got, want)
		}
	}
	if want == untouched {
		t.Error("the in-memory run did not compute")
	}
}

// droppingTransport wraps MemWire and injects one worker-depot loss: the
// first RecvLane at the trigger step drops the victim's stored lanes
// first, so the engine sees exactly what a died-and-restarted TCP worker
// produces — a WorkerDownError on a lane fetch.
type droppingTransport struct {
	*transport.MemWire
	triggerStep int
	victim      int
	fired       bool
}

func (d *droppingTransport) RecvLane(step, src, dst int) ([]byte, error) {
	if !d.fired && step == d.triggerStep {
		d.fired = true
		d.MemWire.DropWorker(d.victim)
	}
	return d.MemWire.RecvLane(step, src, dst)
}

// TestTransportWorkerDownRollsBack proves the recovery contract: a worker
// losing its depot mid-run rolls the run back to the latest checkpoint,
// replays, and finishes with values and counters identical to an unfailed
// run — the same guarantee the injected-fault crash matrix provides, now
// reached through the transport's WorkerDownError path.
func TestTransportWorkerDownRollsBack(t *testing.T) {
	const n, iters = 96, 11
	base := buildPRGraph(Config{Workers: 4}, n)
	baseStats, err := base.Run(pageRankish(n, iters), WithName("wiredown"))
	if err != nil {
		t.Fatal(err)
	}
	want := collectPR(base)

	for trigger := 1; trigger < iters; trigger++ {
		tx := &droppingTransport{MemWire: transport.NewMemWire(4), triggerStep: trigger, victim: 2}
		g := buildPRGraph(Config{Workers: 4, Transport: tx, CheckpointEvery: 3}, n)
		stats, err := g.Run(pageRankish(n, iters), WithName("wiredown"))
		if err != nil {
			t.Fatalf("drop@%d: %v", trigger, err)
		}
		if stats.Recoveries != 1 {
			t.Fatalf("drop@%d: %d recoveries, want 1", trigger, stats.Recoveries)
		}
		if got := collectPR(g); !reflect.DeepEqual(got, want) {
			t.Errorf("drop@%d: recovered values differ from unfailed run", trigger)
		}
		sameRunStats(t, fmt.Sprintf("drop@%d", trigger), baseStats, stats)
	}
}

// TestTransportWorkerDownWithoutCheckpointsFatal: without checkpointing a
// lost worker fails the run with an error that names the cure.
func TestTransportWorkerDownWithoutCheckpointsFatal(t *testing.T) {
	const n = 96
	tx := &droppingTransport{MemWire: transport.NewMemWire(4), triggerStep: 2, victim: 1}
	g := buildPRGraph(Config{Workers: 4, Transport: tx}, n)
	_, err := g.Run(pageRankish(n, 8), WithName("wirefatal"))
	if err == nil {
		t.Fatal("run with a lost worker and no checkpoints succeeded")
	}
	if !strings.Contains(err.Error(), "CheckpointEvery") {
		t.Errorf("error should name the checkpointing cure: %v", err)
	}
	if !transport.IsWorkerDown(err) {
		t.Errorf("error should wrap the WorkerDownError cause: %v", err)
	}
}

// TestTransportRepeatedFailureGivesUp: a depot that loses state on every
// drain attempt must exhaust the consecutive-recovery cap instead of
// replaying forever.
func TestTransportRepeatedFailureGivesUp(t *testing.T) {
	tx := &alwaysDownTransport{MemWire: transport.NewMemWire(2)}
	g := buildPRGraph(Config{Workers: 2, Transport: tx, CheckpointEvery: 2}, 32)
	_, err := g.Run(pageRankish(32, 8), WithName("wiregiveup"))
	if err == nil {
		t.Fatal("run against a permanently down worker succeeded")
	}
	if !strings.Contains(err.Error(), "consecutive worker failures") {
		t.Errorf("error should report the recovery cap: %v", err)
	}
}

type alwaysDownTransport struct{ *transport.MemWire }

func (a *alwaysDownTransport) RecvLane(step, src, dst int) ([]byte, error) {
	return nil, &transport.WorkerDownError{Worker: dst, Err: fmt.Errorf("permanently down")}
}

// TestTransportTCPEngineRun drives the engine over the real TCP transport
// against in-process worker depots, including a depot kill-and-restart
// mid-run, and requires bit-identical results to the loopback run.
func TestTransportTCPEngineRun(t *testing.T) {
	const n, iters, workers = 96, 11, 3
	base := buildPRGraph(Config{Workers: workers}, n)
	if _, err := base.Run(pageRankish(n, iters), WithName("tcpcheck")); err != nil {
		t.Fatal(err)
	}
	want := collectPR(base)

	addrs := make([]string, workers)
	servers := make([]*transport.WorkerServer, workers)
	for i := range servers {
		servers[i] = &transport.WorkerServer{Worker: i}
		addr, err := servers[i].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go servers[i].Serve()
		defer servers[i].Close()
		addrs[i] = addr
	}
	tx, err := transport.DialTCP(transport.TCPOptions{
		Peers:        addrs,
		DialTimeout:  2 * time.Second,
		IOTimeout:    5 * time.Second,
		RetryBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()

	t.Run("clean run", func(t *testing.T) {
		g := buildPRGraph(Config{Workers: workers, Parallel: true, Transport: tx}, n)
		if _, err := g.Run(pageRankish(n, iters), WithName("tcpcheck")); err != nil {
			t.Fatal(err)
		}
		if got := collectPR(g); !reflect.DeepEqual(got, want) {
			t.Error("TCP run differs from loopback run")
		}
		c := tx.Counters()
		if c.BytesSent == 0 || c.BytesRecv == 0 || c.Barriers == 0 {
			t.Errorf("TCP counters did not move: %+v", c)
		}
	})

	t.Run("kill and restart a depot mid-run", func(t *testing.T) {
		victim := 1
		done := make(chan struct{})
		go func() {
			defer close(done)
			time.Sleep(15 * time.Millisecond)
			servers[victim].Close()
			restarted := &transport.WorkerServer{Worker: victim}
			for i := 0; i < 100; i++ {
				if _, err := restarted.Listen(addrs[victim]); err == nil {
					break
				}
				time.Sleep(10 * time.Millisecond)
			}
			go restarted.Serve()
			servers[victim] = restarted
		}()
		g := buildPRGraph(Config{Workers: workers, Transport: tx, CheckpointEvery: 2}, n)
		// Slow the job down enough that the kill lands mid-run.
		slowed := func(ctx *Context[int64], id VertexID, v *prVal, msgs []int64) {
			if uint64(id) == 0 {
				time.Sleep(time.Millisecond)
			}
			pageRankish(n, iters)(ctx, id, v, msgs)
		}
		stats, err := g.Run(slowed, WithName("tcpkill"))
		<-done
		if err != nil {
			t.Fatal(err)
		}
		if got := collectPR(g); !reflect.DeepEqual(got, want) {
			t.Error("recovered TCP run differs from loopback run")
		}
		// The kill may land between supersteps and be absorbed by a clean
		// redial; recovery count is 0 or more, but values must match either
		// way. Log it for visibility.
		t.Logf("recoveries=%d redials=%d", stats.Recoveries, tx.Counters().Redials)
	})
}

// TestResumeTransportMismatchFails is the PR's resume-identity satellite:
// a checkpoint written under one transport refuses to resume under
// another, naming both (extending the partitioner/worker-count identity
// checks).
func TestResumeTransportMismatchFails(t *testing.T) {
	const n = 64
	dir := t.TempDir()
	store, err := NewDirCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := buildPRGraph(Config{
		Workers:         4,
		Transport:       transport.NewMemWire(4),
		CheckpointEvery: 2,
		Checkpointer:    store,
	}, n)
	if _, err := g.Run(pageRankish(n, 8), WithName("txresume")); err != nil {
		t.Fatal(err)
	}

	store2, err := NewDirCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	g2 := buildPRGraph(Config{
		Workers:         4,
		CheckpointEvery: 2,
		Checkpointer:    store2,
		Resume:          true,
	}, n)
	_, err = g2.Run(pageRankish(n, 8), WithName("txresume"))
	if err == nil {
		t.Fatal("resume under a different transport succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, `transport "memwire"`) || !strings.Contains(msg, `transport "mem"`) {
		t.Errorf("error should name both transports: %v", err)
	}

	// Same transport resumes cleanly.
	store3, err := NewDirCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	g3 := buildPRGraph(Config{
		Workers:         4,
		Transport:       transport.NewMemWire(4),
		CheckpointEvery: 2,
		Checkpointer:    store3,
		Resume:          true,
	}, n)
	if _, err := g3.Run(pageRankish(n, 8), WithName("txresume")); err != nil {
		t.Fatalf("resume under the original transport: %v", err)
	}
}

// TestTransportWorkerCountMismatchRejected: a transport addressing a
// different worker count than the graph is a configuration error, caught
// by both Validate and Run.
func TestTransportWorkerCountMismatchRejected(t *testing.T) {
	cfg := Config{Workers: 4, Transport: transport.NewMemWire(3)}
	if err := cfg.Validate(); err == nil {
		t.Error("Validate accepted a worker-count mismatch")
	}
	g := buildPRGraph(cfg, 16)
	if _, err := g.Run(pageRankish(16, 3), WithName("txmismatch")); err == nil {
		t.Error("Run accepted a worker-count mismatch")
	}
}

// laneOf builds a msgLane from parallel destination and message lists.
func laneOf[M any](dst []VertexID, msg []M) msgLane[M] { return msgLane[M]{dst: dst, msg: msg} }

// posLaneOf builds a position lane (a SendTo lane).
func posLaneOf[M any](dst []VertexID, msg []M) msgLane[M] {
	return msgLane[M]{dst: dst, msg: msg, pos: true}
}

// TestLaneCodecRoundTrip pins the lane codec: ID and position lanes
// round-trip through a reused decode buffer, and damaged payloads fail
// loudly.
func TestLaneCodecRoundTrip(t *testing.T) {
	lanes := []msgLane[int64]{
		{},
		laneOf([]VertexID{}, []int64{}),
		laneOf([]VertexID{1}, []int64{42}),
		laneOf([]VertexID{7, 7, 99}, []int64{-3, 0, 1 << 40}),
		posLaneOf([]VertexID{}, []int64{}),
		posLaneOf([]VertexID{0, 99, 3}, []int64{5, -1, 1 << 40}),
	}
	var got msgLane[int64]
	for i, lane := range lanes {
		if err := decodeLane(encodeLane(nil, lane), &got, 2, 100); err != nil {
			t.Fatalf("lane %d: %v", i, err)
		}
		if len(got.dst) != len(lane.dst) || len(got.msg) != len(lane.msg) || got.pos != lane.pos {
			t.Fatalf("lane %d: %d/%d destinations/messages (positions %v), want %d (%v)",
				i, len(got.dst), len(got.msg), got.pos, len(lane.dst), lane.pos)
		}
		for j := range lane.dst {
			if got.dst[j] != lane.dst[j] || got.msg[j] != lane.msg[j] {
				t.Fatalf("lane %d message %d: (%d, %d) want (%d, %d)", i, j, got.dst[j], got.msg[j], lane.dst[j], lane.msg[j])
			}
		}
	}

	// Corrupt payloads fail loudly instead of decoding garbage, and leave
	// the buffer empty.
	good := encodeLane(nil, lanes[3])
	bad := map[string][]byte{
		"empty":          nil,
		"unknown flag":   {9, 1, 2},
		"flag 2":         append([]byte{2}, good[1:]...),
		"huge count":     {laneBinary, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1},
		"count too big":  {laneBinary, 2, 1, 2},
		"truncated":      good[:len(good)-1],
		"trailing bytes": append(append([]byte(nil), good...), 0),
		"non-minimal":    {laneBinary, 1, 0x81, 0x00, 2},
	}
	for name, payload := range bad {
		got := laneOf([]VertexID{5}, []int64{5})
		if err := decodeLane(payload, &got, 2, 100); err == nil {
			t.Errorf("%s: decoded %+v", name, got)
		}
		if len(got.dst) != 0 || len(got.msg) != 0 || got.pos {
			t.Errorf("%s: failed decode left %d/%d entries (positions %v)", name, len(got.dst), len(got.msg), got.pos)
		}
	}
}

// TestLaneCodecRefusesForeignPositions: the same payload that is a valid ID
// lane is refused as a position lane once a position falls outside the
// receiving partition, with an error naming the worker, the position and
// the partition size, and an unknown lane kind is refused with its flag
// and worker.
func TestLaneCodecRefusesForeignPositions(t *testing.T) {
	payload := encodeLane(nil, posLaneOf([]VertexID{0, 7}, []int64{1, 2}))
	var got msgLane[int64]
	if err := decodeLane(payload, &got, 3, 8); err != nil {
		t.Fatalf("in-range positions refused: %v", err)
	}
	err := decodeLane(payload, &got, 3, 7)
	if err == nil {
		t.Fatal("position 7 of a 7-vertex partition was accepted")
	}
	for _, want := range []string{"position 7", "worker 3", "has 7 vertices"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if len(got.dst) != 0 || got.pos {
		t.Errorf("failed decode left %d entries (positions %v)", len(got.dst), got.pos)
	}
	wrong := append([]byte{lanePos + 1}, payload[1:]...)
	if err := decodeLane(wrong, &got, 3, 8); err == nil || !strings.Contains(err.Error(), "worker 3") ||
		!strings.Contains(err.Error(), fmt.Sprintf("flag %d", lanePos+1)) {
		t.Errorf("a lane of unknown kind: %v", err)
	}
}

// FuzzLaneCodec feeds arbitrary payloads to the lane decoder, which reads
// bytes another process wrote, for a receiving partition of size vertices:
// it must never panic, must size its arrays only from what the payload can
// hold, must keep destinations and messages paired, must accept a position
// lane only if every position is inside the partition, and an accepted
// payload must re-encode to exactly its bytes.
func FuzzLaneCodec(f *testing.F) {
	for _, l := range []msgLane[int64]{
		{},
		laneOf([]VertexID{1}, []int64{42}),
		laneOf([]VertexID{7, 7, 99, 1 << 63}, []int64{-3, 0, 1 << 40, -1 << 63}),
		posLaneOf([]VertexID{0, 5, 5}, []int64{1, 2, 3}),
		posLaneOf([]VertexID{6}, []int64{-1}),
	} {
		f.Add(encodeLane(nil, l), uint16(6))
	}
	f.Add([]byte{laneBinary, 0xff, 0xff, 0xff, 0xff, 0x0f}, uint16(0))
	f.Add([]byte{lanePos, 1, 0x80, 0x01, 2}, uint16(128))
	f.Add([]byte{2}, uint16(1)) // no such lane kind: must be rejected
	f.Fuzz(func(t *testing.T, data []byte, size uint16) {
		var l msgLane[int64]
		if err := decodeLane(data, &l, 1, int(size)); err != nil {
			if len(l.dst) != 0 || len(l.msg) != 0 || l.pos {
				t.Fatalf("failed decode left %d/%d entries (positions %v)", len(l.dst), len(l.msg), l.pos)
			}
			return
		}
		if len(l.dst) != len(l.msg) {
			t.Fatalf("%d destinations for %d messages", len(l.dst), len(l.msg))
		}
		if cap(l.dst) > len(data) || cap(l.msg) > len(data) {
			t.Fatalf("%d-byte payload reserved %d/%d entries", len(data), cap(l.dst), cap(l.msg))
		}
		if l.pos != (data[0] == lanePos) {
			t.Fatalf("flag %d decoded as a position lane: %v", data[0], l.pos)
		}
		for _, p := range l.dst {
			if l.pos && p >= VertexID(size) {
				t.Fatalf("position %d accepted in a %d-vertex partition", p, size)
			}
		}
		if re := encodeLane(nil, l); !bytes.Equal(re, data) {
			t.Fatalf("accepted payload re-encodes differently:\n got %x\nwant %x", re, data)
		}
	})
}

// TestTransportFrameSymmetry pins the counter contract: FramesSent and
// FramesRecv meter data-plane lane frames only, so for any completed run
// the two are equal.
func TestTransportFrameSymmetry(t *testing.T) {
	const n, iters = 96, 11
	tx := transport.NewMemWire(4)
	g := buildPRGraph(Config{Workers: 4, Transport: tx}, n)
	if _, err := g.Run(pageRankish(n, iters), WithName("framesym")); err != nil {
		t.Fatal(err)
	}
	c := tx.Counters()
	if c.FramesSent == 0 || c.FramesRecv == 0 {
		t.Fatalf("no lane frames metered: %+v", c)
	}
	if c.FramesSent != c.FramesRecv {
		t.Errorf("frame counters asymmetric: sent %d recv %d", c.FramesSent, c.FramesRecv)
	}
}
