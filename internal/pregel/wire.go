package pregel

import (
	"fmt"
	"slices"

	"ppaassembler/internal/telemetry"
	"ppaassembler/internal/transport"
)

// Transport delivery: when Config.Transport is a non-loopback transport,
// the superstep shuffle leaves process memory. After the compute barrier
// every remote (src,dst) outbox lane is encoded with the deterministic
// lane codec below and shipped to the destination worker's depot
// (SendLane); delivery is then the in-memory path's own deliverTo, whose
// lane source fetches each remote lane back (RecvLane) and decodes it
// instead of borrowing it. Lanes are encoded and drained in source-worker
// order, and the codec is byte-deterministic, so a run over a transport is
// bit-identical to an in-memory run. Local lanes (src == dst) never leave
// memory, matching the two-tier cost model's intra-machine lane.
//
// The engine sends every remote lane of a superstep — even empty ones —
// before draining any, so a missing lane at RecvLane time is never
// ambiguity about emptiness: it means the depot lost state (worker death
// and restart), surfaces as a *transport.WorkerDownError, and the run
// rolls back to its latest checkpoint exactly like an injected fault.

// The lane payload's leading flag byte says what its destinations are:
// vertex IDs (laneBinary) or positions in the destination partition
// (lanePos, a SendTo lane). Both use the value codec for messages; any
// other flag is a damaged payload.
const (
	laneBinary byte = 0
	lanePos    byte = 1
)

// encodeLane appends the lane payload encoding of l to buf: the flag, the
// message count and each (destination, message) pair.
func encodeLane[M any](buf []byte, l msgLane[M]) []byte {
	if l.pos {
		buf = append(buf, lanePos)
	} else {
		buf = append(buf, laneBinary)
	}
	buf = AppendUvarint(buf, uint64(len(l.dst)))
	for i := range l.dst {
		buf = AppendUvarint(buf, uint64(l.dst[i]))
		buf = appendVal(buf, &l.msg[i])
	}
	return buf
}

// decodeLane decodes a lane payload for worker dst, whose partition holds
// size vertices, into l, reusing its capacity. The payload is bytes from the
// network: every failure is an error — a position lane's destination outside
// the partition too — and the arrays are sized from the declared count only
// once the payload is known to be long enough to hold it (each entry takes
// at least one byte).
func decodeLane[M any](data []byte, l *msgLane[M], dst, size int) error {
	l.reset()
	if len(data) == 0 {
		return corruptf("pregel: transport lane payload for worker %d is empty", dst)
	}
	if data[0] != laneBinary && data[0] != lanePos {
		return corruptf("pregel: transport lane flag %d for worker %d, want %d (vertex IDs) or %d (positions)",
			data[0], dst, laneBinary, lanePos)
	}
	pos := data[0] == lanePos
	n, data, err := ConsumeUvarint(data[1:])
	if err != nil {
		return err
	}
	if n > uint64(len(data)) {
		return corruptf("pregel: transport lane declares %d messages in %d bytes", n, len(data))
	}
	l.dst, l.msg, l.pos = slices.Grow(l.dst, int(n))[:n], slices.Grow(l.msg, int(n))[:n], pos
	clear(l.msg) // each message decodes into a zero value, as a fresh one would
	for i := range l.dst {
		var d uint64
		if d, data, err = ConsumeUvarint(data); err != nil {
			break
		}
		if pos && d >= uint64(size) {
			err = corruptf("pregel: transport lane addresses position %d of worker %d, whose partition has %d vertices", d, dst, size)
			break
		}
		l.dst[i] = VertexID(d)
		if data, err = consumeVal(data, &l.msg[i]); err != nil {
			break
		}
	}
	if err == nil && len(data) != 0 {
		err = corruptf("pregel: %d trailing bytes after transport lane", len(data))
	}
	if err != nil {
		l.reset()
	}
	return err
}

// transportActive reports whether the shuffle must leave process memory.
// A nil Transport and the loopback mem transport both keep the historical
// zero-copy in-memory path.
func (g *Graph[V, M]) transportActive() bool {
	return g.cfg.Transport != nil && !g.cfg.Transport.Loopback()
}

// transportName is the transport identity recorded in checkpoints. A nil
// Transport is the historical in-memory shuffle and shares the loopback
// mem transport's name, so the two interoperate across a resume.
func (g *Graph[V, M]) transportName() string {
	if g.cfg.Transport == nil {
		return "mem"
	}
	return g.cfg.Transport.Name()
}

// deliverViaTransport runs one superstep's shuffle over cfg.Transport:
// a send phase ships every remote lane to its destination depot, then a
// drain phase rebuilds each destination's inbox arena from fetched lanes.
// Errors land in the destination workers' deliverErr slots and fold out
// through collectDelivery, so worker-down detection composes with the
// engine's existing error path.
func (g *Graph[V, M]) deliverViaTransport(step int) (delivered, dropped int64, err error) {
	t := g.cfg.Transport
	tr := g.cfg.Tracer
	// The send phase reports through the workers' deliverErr slots, which
	// deliverTo normally clears at drain time — replaying after a failed
	// attempt must not resurface the stale error.
	for _, w := range g.workers {
		w.deliverErr = nil
	}

	if tr != nil {
		g.emit(telemetry.KindBegin, "send", "transport", nowNs(), g.clock.Ns(),
			telemetry.I("step", int64(step)))
	}
	forEachWorker(g.cfg.Workers, g.cfg.Parallel, g.runName, "tx-send", func(swi int) {
		src := g.workers[swi]
		var buf []byte
		for dwi := range g.workers {
			if dwi == swi {
				continue // local lanes never leave memory
			}
			buf = encodeLane(buf[:0], src.outbox[dwi])
			if err := t.SendLane(step, swi, dwi, buf); err != nil {
				src.deliverErr = err
				return
			}
		}
	})
	if tr != nil {
		g.emit(telemetry.KindEnd, "send", "transport", nowNs(), g.clock.Ns())
	}
	if _, _, sendErr := g.collectDelivery(); sendErr != nil {
		// deliverTo in the drain phase clears deliverErr; bail before it so
		// the send failure is not masked.
		return 0, 0, sendErr
	}

	if tr != nil {
		g.emit(telemetry.KindBegin, "drain", "transport", nowNs(), g.clock.Ns(),
			telemetry.I("step", int64(step)))
	}
	forEachWorker(g.cfg.Workers, g.cfg.Parallel, g.runName, "tx-drain", func(dwi int) {
		g.deliverTo(dwi, step, true)
	})
	if tr != nil {
		g.emit(telemetry.KindEnd, "drain", "transport", nowNs(), g.clock.Ns())
	}
	return g.collectDelivery()
}

// transportBarrier publishes the end of superstep step to every worker,
// carrying the aggregator snapshot, inside a traced transport span.
func (g *Graph[V, M]) transportBarrier(step int) error {
	tr := g.cfg.Tracer
	if tr != nil {
		g.emit(telemetry.KindBegin, "barrier", "transport", nowNs(), g.clock.Ns(),
			telemetry.I("step", int64(step)))
	}
	err := g.cfg.Transport.Barrier(step, appendAggSnapshot(nil, g.agg.snapshot()))
	if tr != nil {
		g.emit(telemetry.KindEnd, "barrier", "transport", nowNs(), g.clock.Ns())
	}
	return err
}

// transportConnect establishes the worker connections before the first
// superstep, inside a traced transport span.
func (g *Graph[V, M]) transportConnect() error {
	tr := g.cfg.Tracer
	if tr != nil {
		g.emit(telemetry.KindBegin, "connect", "transport", nowNs(), g.clock.Ns(),
			telemetry.I("workers", int64(g.cfg.Workers)))
	}
	err := g.cfg.Transport.Connect()
	if tr != nil {
		g.emit(telemetry.KindEnd, "connect", "transport", nowNs(), g.clock.Ns())
	}
	return err
}

// foldTransportMetrics adds the transport counter deltas of one run to the
// metrics registry.
func foldTransportMetrics(reg *telemetry.Registry, base, now transport.Counters) {
	if reg == nil {
		return
	}
	add := func(name string, delta int64) {
		if delta > 0 {
			reg.Counter(name).Add(delta)
		}
	}
	add("transport_bytes_sent_total", now.BytesSent-base.BytesSent)
	add("transport_bytes_received_total", now.BytesRecv-base.BytesRecv)
	add("transport_frames_sent_total", now.FramesSent-base.FramesSent)
	add("transport_frames_received_total", now.FramesRecv-base.FramesRecv)
	add("transport_wire_ns_total", now.WireNs-base.WireNs)
	add("transport_connects_total", now.Connects-base.Connects)
	add("transport_retries_total", now.Redials-base.Redials)
	add("transport_barriers_total", now.Barriers-base.Barriers)
}

// maxTransportRecoveries caps back-to-back worker-down rollbacks of one
// run: a worker that keeps dying (or a peer address that is simply wrong)
// must eventually fail the run instead of replaying forever. Any
// successfully completed superstep resets the count.
const maxTransportRecoveries = 10

// transportRecover handles a worker-down failure during a superstep: with
// checkpointing enabled it rolls the run back to the latest checkpoint —
// exactly the injected-fault path — and returns the restored step and
// pending count; the transport redials on the next use. Without
// checkpointing the failure is fatal, with an error that says how to make
// it survivable.
func (g *Graph[V, M]) transportRecover(ck *ckptRun, job string, step int, cause error, stats *Stats) (int, int64, error) {
	if g.cfg.Tracer != nil {
		g.emit(telemetry.KindInstant, "workerdown", "transport", nowNs(), g.clock.Ns(),
			telemetry.I("step", int64(step)))
	}
	if ck == nil {
		return 0, 0, fmt.Errorf("pregel: job %q: worker lost at superstep %d with checkpointing disabled (set CheckpointEvery to make worker death survivable): %w",
			job, step, cause)
	}
	g.warnf("pregel: job %q: %v at superstep %d; rolling back to the latest checkpoint", job, cause, step)
	chain, ok, err := ck.loadCheckpoint()
	if err != nil {
		return 0, 0, err
	}
	if !ok {
		return 0, 0, fmt.Errorf("pregel: job %q: worker lost at superstep %d but no checkpoint exists: %w", job, step, cause)
	}
	newStep, pending, err := g.restoreCheckpoint(chain, stats)
	if err != nil {
		return 0, 0, err
	}
	stats.Recoveries++
	if g.cfg.Metrics != nil {
		g.cfg.Metrics.Counter("pregel_recoveries_total").Add(1)
	}
	return newStep, pending, nil
}
