package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: FrameHello, Payload: helloPayload(3, 7)},
		{Type: FrameHelloAck},
		{Type: FrameLane, Step: 12, Src: 2, Dst: 5, Payload: []byte("lane-bytes")},
		{Type: FrameLane, Step: 0, Src: 0, Dst: 0, Payload: nil},
		{Type: FrameLaneReq, Step: 12, Src: 2, Dst: 5},
		{Type: FrameLaneData, Step: 12, Src: 2, Dst: 5, Payload: bytes.Repeat([]byte{0xAB}, 4096)},
		{Type: FrameBarrier, Step: 99, Payload: []byte("agg-snapshot")},
		{Type: FrameBarrierAck, Step: 99},
		{Type: FrameError, Payload: []byte("boom")},
	}
	var wire []byte
	for _, f := range frames {
		wire = AppendFrame(wire, f)
	}
	rest := wire
	for i, want := range frames {
		var got Frame
		var err error
		got, rest, err = DecodeFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		if got.Type != want.Type || got.Step != want.Step || got.Src != want.Src || got.Dst != want.Dst {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
		if !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after decoding all frames", len(rest))
	}
}

func TestFrameReadStream(t *testing.T) {
	var wire []byte
	for step := 0; step < 5; step++ {
		wire = AppendFrame(wire, Frame{Type: FrameLane, Step: step, Src: 1, Dst: 2, Payload: []byte{byte(step)}})
	}
	r := bytes.NewReader(wire)
	for step := 0; step < 5; step++ {
		f, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if f.Step != step || len(f.Payload) != 1 || f.Payload[0] != byte(step) {
			t.Fatalf("step %d: got %+v", step, f)
		}
	}
}

// TestReadFrameBoundedByBytesReceived is the regression test for the
// pre-allocation bug: four header bytes claiming a 1 GiB body, then EOF,
// must fail having allocated next to nothing — the reader may only grow its
// buffer as body bytes really arrive.
func TestReadFrameBoundedByBytesReceived(t *testing.T) {
	hdr := binary.LittleEndian.AppendUint32(nil, MaxFrameBytes)
	for _, body := range [][]byte{nil, make([]byte, 100), make([]byte, readChunk)} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadFrame(bytes.NewReader(append(hdr[:4:4], body...)))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("1 GiB header + %d body bytes + EOF: got error %v, want io.ErrUnexpectedEOF", len(body), err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 2<<20 {
			t.Errorf("1 GiB header + %d body bytes + EOF allocated %d bytes, want under 2 MiB", len(body), grew)
		}
	}
}

// TestReadFrameAcrossChunks reads a frame several read-ahead chunks long
// through a reader that hands out a few bytes at a time.
func TestReadFrameAcrossChunks(t *testing.T) {
	payload := make([]byte, 3*readChunk+17)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	wire := AppendFrame(nil, Frame{Type: FrameLane, Step: 3, Src: 1, Dst: 2, Payload: payload})
	wire = AppendFrame(wire, Frame{Type: FrameBarrier, Step: 4})
	r := iotest.HalfReader(bytes.NewReader(wire))
	f, n, err := readFrameCount(r)
	if err != nil || !bytes.Equal(f.Payload, payload) || f.Step != 3 {
		t.Fatalf("chunked read: err %v, step %d, %d payload bytes", err, f.Step, len(f.Payload))
	}
	if next, err := ReadFrame(r); err != nil || next.Type != FrameBarrier || n+4+8 > len(wire) {
		t.Fatalf("frame after the chunked one: %+v, err %v (first consumed %d of %d bytes)", next, err, n, len(wire))
	}
}

func TestFrameDecodeCorruption(t *testing.T) {
	good := AppendFrame(nil, Frame{Type: FrameLane, Step: 3, Src: 1, Dst: 2, Payload: []byte("payload")})

	t.Run("bit flips are detected", func(t *testing.T) {
		for i := range good {
			for _, bit := range []byte{0x01, 0x80} {
				mut := append([]byte(nil), good...)
				mut[i] ^= bit
				f, rest, err := DecodeFrame(mut)
				if err == nil {
					// A flip in the length prefix can only "succeed" by
					// shrinking the frame; anything decoded must then fail
					// the CRC, so reaching here is always a bug.
					t.Fatalf("flip byte %d bit %02x: decoded %+v (rest %d) from corrupt frame", i, bit, f, len(rest))
				}
				if !errors.Is(err, ErrFrameCorrupt) {
					t.Fatalf("flip byte %d bit %02x: error %v does not wrap ErrFrameCorrupt", i, bit, err)
				}
			}
		}
	})

	t.Run("truncations are detected", func(t *testing.T) {
		for n := 0; n < len(good); n++ {
			_, _, err := DecodeFrame(good[:n])
			if err == nil {
				t.Fatalf("truncation to %d bytes decoded successfully", n)
			}
			if !errors.Is(err, ErrFrameCorrupt) {
				t.Fatalf("truncation to %d bytes: error %v does not wrap ErrFrameCorrupt", n, err)
			}
		}
	})

	t.Run("oversized length prefix", func(t *testing.T) {
		mut := append([]byte(nil), good...)
		mut[3] = 0xFF // length prefix becomes > MaxFrameBytes
		if _, _, err := DecodeFrame(mut); !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("oversized length: %v", err)
		}
	})
}

func TestMemLoopback(t *testing.T) {
	m := NewMem(4)
	if m.Name() != "mem" || !m.Loopback() || m.Workers() != 4 {
		t.Fatalf("unexpected mem identity: %q loopback=%v workers=%d", m.Name(), m.Loopback(), m.Workers())
	}
	if err := m.Connect(); err != nil {
		t.Fatal(err)
	}
	if err := m.SendLane(0, 0, 1, nil); err == nil {
		t.Fatal("SendLane on the loopback transport should refuse")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMemWireStoreAndDrain(t *testing.T) {
	m := NewMemWire(3)
	if m.Name() != "memwire" || m.Loopback() {
		t.Fatalf("unexpected memwire identity: %q loopback=%v", m.Name(), m.Loopback())
	}
	for src := 0; src < 3; src++ {
		for dst := 0; dst < 3; dst++ {
			payload := fmt.Appendf(nil, "lane-%d-%d", src, dst)
			if err := m.SendLane(7, src, dst, payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	for src := 0; src < 3; src++ {
		for dst := 0; dst < 3; dst++ {
			got, err := m.RecvLane(7, src, dst)
			if err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf("lane-%d-%d", src, dst); string(got) != want {
				t.Fatalf("lane (%d,%d): got %q want %q", src, dst, got, want)
			}
		}
	}
	c := m.Counters()
	if c.FramesSent != 9 || c.FramesRecv != 9 || c.BytesSent == 0 || c.BytesRecv == 0 {
		t.Fatalf("unexpected counters: %+v", c)
	}
	// Barrier frees lanes at or below the step.
	if err := m.Barrier(7, []byte("agg")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RecvLane(7, 0, 0); !IsWorkerDown(err) {
		t.Fatalf("lane should be gone after barrier, got err=%v", err)
	}
}

func TestMemWireOverwriteAndDrop(t *testing.T) {
	m := NewMemWire(2)
	if err := m.SendLane(1, 0, 1, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := m.SendLane(1, 0, 1, []byte("second")); err != nil {
		t.Fatal(err)
	}
	got, err := m.RecvLane(1, 0, 1)
	if err != nil || string(got) != "second" {
		t.Fatalf("overwrite: got %q err=%v", got, err)
	}
	m.DropWorker(1)
	_, err = m.RecvLane(1, 0, 1)
	var wd *WorkerDownError
	if !errors.As(err, &wd) || wd.Worker != 1 {
		t.Fatalf("after DropWorker: err=%v", err)
	}
}

// startWorkers launches n in-process WorkerServers on ephemeral localhost
// ports and returns their addresses plus a shutdown func.
func startWorkers(t *testing.T, n int) ([]string, []*WorkerServer) {
	t.Helper()
	addrs := make([]string, n)
	servers := make([]*WorkerServer, n)
	for i := 0; i < n; i++ {
		s := &WorkerServer{Worker: i}
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go s.Serve()
		t.Cleanup(func() { s.Close() })
		addrs[i] = addr
		servers[i] = s
	}
	return addrs, servers
}

func dialTestTCP(t *testing.T, addrs []string) *TCP {
	t.Helper()
	tr, err := DialTCP(TCPOptions{
		Peers:        addrs,
		DialTimeout:  2 * time.Second,
		IOTimeout:    5 * time.Second,
		RetryBackoff: 10 * time.Millisecond,
		MaxRetries:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

func TestTCPLaneExchange(t *testing.T) {
	const workers = 3
	addrs, _ := startWorkers(t, workers)
	tr := dialTestTCP(t, addrs)
	if err := tr.Connect(); err != nil {
		t.Fatal(err)
	}
	if tr.Name() != "tcp" || tr.Loopback() || tr.Workers() != workers {
		t.Fatalf("unexpected tcp identity: %q loopback=%v workers=%d", tr.Name(), tr.Loopback(), tr.Workers())
	}
	for step := 0; step < 3; step++ {
		for src := 0; src < workers; src++ {
			for dst := 0; dst < workers; dst++ {
				payload := fmt.Appendf(nil, "s%d-%d>%d", step, src, dst)
				if err := tr.SendLane(step, src, dst, payload); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Drain destinations concurrently, like the engine does.
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for dst := 0; dst < workers; dst++ {
			wg.Add(1)
			go func(dst int) {
				defer wg.Done()
				for src := 0; src < workers; src++ {
					got, err := tr.RecvLane(step, src, dst)
					if err != nil {
						errs[dst] = err
						return
					}
					if want := fmt.Sprintf("s%d-%d>%d", step, src, dst); string(got) != want {
						errs[dst] = fmt.Errorf("lane (%d,%d,%d): got %q want %q", step, src, dst, got, want)
						return
					}
				}
			}(dst)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Barrier(step, []byte("agg")); err != nil {
			t.Fatal(err)
		}
	}
	c := tr.Counters()
	if c.Connects != workers || c.Barriers != 3 || c.BytesSent == 0 || c.BytesRecv == 0 || c.WireNs == 0 {
		t.Fatalf("unexpected counters: %+v", c)
	}
}

func TestTCPWorkerRestartDetected(t *testing.T) {
	addrs, servers := startWorkers(t, 2)
	tr := dialTestTCP(t, addrs)
	if err := tr.Connect(); err != nil {
		t.Fatal(err)
	}
	if err := tr.SendLane(0, 0, 1, []byte("lane")); err != nil {
		t.Fatal(err)
	}
	// Kill worker 1 and restart a fresh depot on the same address.
	servers[1].Close()
	restarted := &WorkerServer{Worker: 1}
	var err error
	for i := 0; i < 50; i++ { // the old listener may linger briefly
		if _, err = restarted.Listen(addrs[1]); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("restart listen: %v", err)
	}
	go restarted.Serve()
	t.Cleanup(func() { restarted.Close() })

	// The lane sent before the crash is gone: either the dead connection
	// or the empty depot after redial must surface as WorkerDownError.
	_, err = tr.RecvLane(0, 0, 1)
	var wd *WorkerDownError
	if !errors.As(err, &wd) || wd.Worker != 1 {
		t.Fatalf("expected WorkerDownError for worker 1, got %v", err)
	}
	// The transport recovers: a replay (fresh send + recv) succeeds.
	if err := tr.SendLane(0, 0, 1, []byte("replayed")); err != nil {
		t.Fatalf("replay send: %v", err)
	}
	got, err := tr.RecvLane(0, 0, 1)
	if err != nil || string(got) != "replayed" {
		t.Fatalf("replay recv: got %q err=%v", got, err)
	}
	if tr.Counters().Redials == 0 && tr.Counters().Connects < 3 {
		t.Fatalf("expected a redial after worker restart: %+v", tr.Counters())
	}
}

func TestTCPDialFailureIsWorkerDown(t *testing.T) {
	tr, err := DialTCP(TCPOptions{
		Peers:        []string{"127.0.0.1:1"}, // reserved port, nothing listens
		DialTimeout:  200 * time.Millisecond,
		RetryBackoff: time.Millisecond,
		MaxRetries:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = tr.Connect()
	var wd *WorkerDownError
	if !errors.As(err, &wd) || wd.Worker != 0 {
		t.Fatalf("expected WorkerDownError for worker 0, got %v", err)
	}
}

func TestTCPHelloWrongWorkerRejected(t *testing.T) {
	addrs, _ := startWorkers(t, 1)
	// Peer slot 1 points at worker 0's depot: the hello addresses worker 1,
	// the depot rejects it, and the peer is declared down.
	tr, err := DialTCP(TCPOptions{
		Peers:        []string{addrs[0], addrs[0]},
		DialTimeout:  time.Second,
		RetryBackoff: time.Millisecond,
		MaxRetries:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	err = tr.Connect()
	var wd *WorkerDownError
	if !errors.As(err, &wd) || wd.Worker != 1 {
		t.Fatalf("expected WorkerDownError for mis-addressed worker 1, got %v", err)
	}
	if !strings.Contains(err.Error(), "this is worker 0") {
		t.Fatalf("error should carry the depot's rejection text, got %v", err)
	}
}

func TestWorkerServerCrashHook(t *testing.T) {
	exited := make(chan int, 1)
	s := &WorkerServer{Worker: 0, ExitAfterFrames: 3, Exit: func(code int) {
		exited <- code
		runtime.Goexit() // end the handler goroutine like os.Exit would
	}}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	t.Cleanup(func() { s.Close() })

	tr := dialTestTCP(t, []string{addr})
	if err := tr.Connect(); err != nil {
		t.Fatal(err)
	}
	// Hello counted as frame 1; two lanes reach the hook threshold.
	tr.SendLane(0, 0, 0, []byte("a"))
	tr.SendLane(0, 0, 0, []byte("b"))
	select {
	case code := <-exited:
		if code != 1 {
			t.Fatalf("crash hook exit code %d", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("crash hook did not fire")
	}
}

func TestWorkerDownErrorText(t *testing.T) {
	err := &WorkerDownError{Worker: 4, Err: errors.New("connection refused")}
	if !strings.Contains(err.Error(), "worker 4") {
		t.Fatalf("error text should name the worker: %q", err.Error())
	}
	if !IsWorkerDown(fmt.Errorf("wrapped: %w", err)) {
		t.Fatal("IsWorkerDown should see through wrapping")
	}
}
