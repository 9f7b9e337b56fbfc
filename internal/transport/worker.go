package transport

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
)

// WorkerServer is the process side of the TCP transport: a lane depot. It
// accepts coordinator connections, stores FrameLane payloads keyed by
// (step, src, dst), serves FrameLaneReq, and frees old lanes on
// FrameBarrier. It holds no compute and no graph state — compute stays on
// the coordinator; the depot is the external shuffle service the engine
// drains over the network.
//
// A new FrameHello resets the depot: a fresh coordinator session (initial
// connect or a redial after either side died) supersedes anything stored
// before, so a replayed superstep never reads stale lanes. This is also
// what makes worker death detectable — after a restart the depot is empty,
// a lane request answers FrameError, and the coordinator maps that to a
// WorkerDownError and rolls back to its checkpoint.
type WorkerServer struct {
	// Worker is this depot's logical worker index; HELLOs addressed to a
	// different index are rejected.
	Worker int
	// Logf receives one line per session event (accept, reset, close).
	// Nil disables logging.
	Logf func(format string, args ...any)
	// ExitAfterFrames, when positive, makes the process exit(1) after
	// handling that many frames — a crash hook for kill-and-recover tests.
	ExitAfterFrames int
	// exit is the crash hook; defaults to log.Fatalf-style os.Exit.
	Exit func(code int)

	mu     sync.Mutex
	depot  map[laneKey][]byte
	frames int
	ln     net.Listener
	conns  map[net.Conn]struct{}
}

// Listen binds addr ("host:port", port 0 for ephemeral) and returns the
// bound address. Serve accepts on the listener until Close.
func (s *WorkerServer) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("transport worker %d: listen %s: %w", s.Worker, addr, err)
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	return ln.Addr().String(), nil
}

// Serve accepts coordinator connections until the listener closes. Each
// connection is handled on its own goroutine; the depot is shared, so a
// redial sees the state the HELLO handshake chooses to keep (none).
func (s *WorkerServer) Serve() error {
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln == nil {
		return fmt.Errorf("transport worker %d: Serve before Listen", s.Worker)
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("transport worker %d: accept: %w", s.Worker, err)
		}
		go s.handle(conn)
	}
}

// Close stops the listener and severs live coordinator connections, the
// way a dying worker process would.
func (s *WorkerServer) Close() error {
	s.mu.Lock()
	ln := s.ln
	s.ln = nil
	conns := s.conns
	s.conns = nil
	s.mu.Unlock()
	for conn := range conns {
		conn.Close()
	}
	if ln != nil {
		return ln.Close()
	}
	return nil
}

func (s *WorkerServer) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// handle runs one coordinator session.
func (s *WorkerServer) handle(conn net.Conn) {
	s.mu.Lock()
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	s.logf("worker %d: session from %s", s.Worker, conn.RemoteAddr())
	for {
		f, err := ReadFrame(conn)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				s.logf("worker %d: session ended: %v", s.Worker, err)
			}
			return
		}
		if err := s.dispatch(conn, f); err != nil {
			s.logf("worker %d: reply failed: %v", s.Worker, err)
			return
		}
		s.tickCrashHook()
	}
}

// Frames reports how many frames the server has handled so far, over all
// sessions: what a crash test sizes ExitAfterFrames against.
func (s *WorkerServer) Frames() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frames
}

// tickCrashHook counts one handled frame and implements ExitAfterFrames.
func (s *WorkerServer) tickCrashHook() {
	s.mu.Lock()
	s.frames++
	crash := s.ExitAfterFrames > 0 && s.frames >= s.ExitAfterFrames
	s.mu.Unlock()
	if crash {
		s.logf("worker %d: crash hook after %d frames", s.Worker, s.ExitAfterFrames)
		if s.Exit != nil {
			s.Exit(1)
		}
		log.Fatalf("transport worker %d: crash hook fired", s.Worker)
	}
}

// dispatch handles one frame, writing replies for request frames.
func (s *WorkerServer) dispatch(conn net.Conn, f Frame) error {
	switch f.Type {
	case FrameHello:
		version, worker, _, err := decodeHello(f.Payload)
		if err != nil {
			return s.reply(conn, errorFrame("bad hello payload: %v", err))
		}
		if version != protocolVersion {
			return s.reply(conn, errorFrame("protocol version %d, want %d", version, protocolVersion))
		}
		if worker != s.Worker {
			return s.reply(conn, errorFrame("this is worker %d, hello addressed worker %d", s.Worker, worker))
		}
		s.mu.Lock()
		s.depot = make(map[laneKey][]byte)
		s.mu.Unlock()
		s.logf("worker %d: depot reset for new session", s.Worker)
		return s.reply(conn, Frame{Type: FrameHelloAck})

	case FrameLane:
		payload := append([]byte(nil), f.Payload...)
		s.mu.Lock()
		if s.depot == nil {
			s.depot = make(map[laneKey][]byte)
		}
		s.depot[laneKey{f.Step, f.Src, f.Dst}] = payload
		s.mu.Unlock()
		return nil // lanes are pipelined, not acknowledged

	case FrameLaneReq:
		s.mu.Lock()
		payload, ok := s.depot[laneKey{f.Step, f.Src, f.Dst}]
		s.mu.Unlock()
		if !ok {
			return s.reply(conn, errorFrame("no lane for step %d src %d dst %d (worker restarted?)", f.Step, f.Src, f.Dst))
		}
		return s.reply(conn, Frame{Type: FrameLaneData, Step: f.Step, Src: f.Src, Dst: f.Dst, Payload: payload})

	case FrameBarrier:
		s.mu.Lock()
		for k := range s.depot {
			if k.Step <= f.Step {
				delete(s.depot, k)
			}
		}
		s.mu.Unlock()
		return s.reply(conn, Frame{Type: FrameBarrierAck, Step: f.Step})

	default:
		return s.reply(conn, errorFrame("unexpected frame type %d", f.Type))
	}
}

func (s *WorkerServer) reply(conn net.Conn, f Frame) error {
	_, err := conn.Write(AppendFrame(nil, f))
	return err
}

func errorFrame(format string, args ...any) Frame {
	return Frame{Type: FrameError, Payload: fmt.Appendf(nil, format, args...)}
}
