package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"ppaassembler/internal/transport"
)

// startDepotServers runs n in-process lane depots (the same
// transport.WorkerServer the -serve-worker mode runs) on ephemeral localhost
// ports and returns them with their addresses joined for -peers.
func startDepotServers(t *testing.T, n int) ([]*transport.WorkerServer, string) {
	t.Helper()
	srvs := make([]*transport.WorkerServer, n)
	addrs := make([]string, n)
	for i := range n {
		srv := &transport.WorkerServer{Worker: i}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srvs[i], addrs[i] = srv, addr
		go srv.Serve()
		t.Cleanup(func() { srv.Close() })
	}
	return srvs, strings.Join(addrs, ",")
}

// startDepots is startDepotServers for callers that only need the peers.
func startDepots(t *testing.T, n int) string {
	t.Helper()
	_, peers := startDepotServers(t, n)
	return peers
}

func TestMakeTransportFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    cliOpts
		want string
	}{
		{"peers without tcp", cliOpts{transport: "mem", peers: "127.0.0.1:1", workers: 1}, "-transport=tcp"},
		{"tcp without peers", cliOpts{transport: "tcp", workers: 2}, "requires -peers"},
		{"peer count mismatch", cliOpts{transport: "tcp", peers: "a:1,b:2", workers: 3}, "but -workers is 3"},
		{"unknown transport", cliOpts{transport: "udp", workers: 1}, "unknown transport"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := makeTransport(tc.o)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("makeTransport = %v, want error containing %q", err, tc.want)
			}
		})
	}
	tp, err := makeTransport(cliOpts{transport: "tcp", peers: "127.0.0.1:1, 127.0.0.1:2", workers: 2})
	if err != nil {
		t.Fatalf("valid tcp opts rejected: %v", err)
	}
	tp.Close()
	if tp.Name() != "tcp" || tp.Workers() != 2 {
		t.Fatalf("got transport %s/%d workers, want tcp/2", tp.Name(), tp.Workers())
	}
}

// TestGoldenPipelineTCPIdentical is the tentpole acceptance test at the CLI
// level: the golden pipeline (assembly + scaffolding) must write
// byte-identical contig and scaffold FASTA whether the superstep shuffle
// stays in process or crosses real TCP depot processes, across every
// partitioner and worker counts {1, 4, 7}. The reference for each worker
// count is the in-memory run at that count (the contig set legitimately
// depends on the shard split, so there is one reference per count, and the
// transport must never move the output off it; partitioner invariance at a
// fixed count is locked separately by TestGoldenPipelinePartitionerIdentical).
func TestGoldenPipelineTCPIdentical(t *testing.T) {
	dir := t.TempDir()
	_, readsPath, _ := goldenPipelineFiles(t, dir)

	runOnce := func(label, partitioner string, workers int, transportName, peers string) (contigs, scaffolds []byte) {
		t.Helper()
		contigsOut := filepath.Join(dir, "contigs_"+label+".fasta")
		scaffoldsOut := filepath.Join(dir, "scaffolds_"+label+".fasta")
		o := defaultOpts(readsPath, contigsOut)
		o.k = 21
		o.workers = workers
		o.partitioner = partitioner
		o.transport = transportName
		o.peers = peers
		o.scaffoldOut = scaffoldsOut
		o.insert = 650
		o.insertSD = 55
		if err := run(o); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		cb, err := os.ReadFile(contigsOut)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := os.ReadFile(scaffoldsOut)
		if err != nil {
			t.Fatal(err)
		}
		return cb, sb
	}

	partitioners := []string{"hash", "range", "minimizer"}
	workerCounts := []int{1, 4, 7}
	if testing.Short() {
		partitioners = []string{"hash", "minimizer"}
		workerCounts = []int{1, 4}
	}
	for _, workers := range workerCounts {
		refContigs, refScaffolds := runOnce(fmt.Sprintf("mem_%d", workers), "hash", workers, "mem", "")
		for _, partitioner := range partitioners {
			label := fmt.Sprintf("tcp_%s_%d", partitioner, workers)
			t.Run(label, func(t *testing.T) {
				peers := startDepots(t, workers)
				contigs, scaffolds := runOnce(label, partitioner, workers, "tcp", peers)
				if string(contigs) != string(refContigs) {
					t.Errorf("contig FASTA differs from the in-memory reference")
				}
				if string(scaffolds) != string(refScaffolds) {
					t.Errorf("scaffold FASTA differs from the in-memory reference")
				}
			})
		}
	}
}

// Env gates for the re-exec'd depot helper process below.
const (
	envWorkerHelper    = "PPA_TEST_WORKER_HELPER"
	envWorkerIndex     = "PPA_TEST_WORKER_INDEX"
	envWorkerListen    = "PPA_TEST_WORKER_LISTEN"
	envWorkerExitAfter = "PPA_TEST_WORKER_EXIT_AFTER"
)

// TestHelperWorkerProcess is not a test: it is the body of the worker OS
// processes spawned by TestGoldenPipelineTCPWorkerKilled, re-exec'ing the
// test binary. It serves a lane depot until killed — or, with
// PPA_TEST_WORKER_EXIT_AFTER set, exits the whole process after that many
// frames, exactly like a crashing worker machine.
func TestHelperWorkerProcess(t *testing.T) {
	if os.Getenv(envWorkerHelper) != "1" {
		t.Skip("helper process body, not a test")
	}
	idx, _ := strconv.Atoi(os.Getenv(envWorkerIndex))
	exitAfter, _ := strconv.Atoi(os.Getenv(envWorkerExitAfter))
	srv := &transport.WorkerServer{
		Worker:          idx,
		ExitAfterFrames: exitAfter,
		Exit:            os.Exit,
	}
	addr, err := srv.Listen(os.Getenv(envWorkerListen))
	if err != nil {
		fmt.Println("listen error:", err)
		os.Exit(2)
	}
	fmt.Printf("worker %d listening on %s\n", idx, addr)
	srv.Serve()
	os.Exit(0)
}

// spawnWorkerProcess re-execs the test binary as a depot OS process and
// returns the command plus the address it bound.
func spawnWorkerProcess(t *testing.T, idx int, listen string, exitAfter int) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperWorkerProcess", "-test.v")
	cmd.Env = append(os.Environ(),
		envWorkerHelper+"=1",
		fmt.Sprintf("%s=%d", envWorkerIndex, idx),
		envWorkerListen+"="+listen,
		fmt.Sprintf("%s=%d", envWorkerExitAfter, exitAfter),
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on "); i >= 0 {
			addr := strings.TrimSpace(line[i+len("listening on "):])
			go func() { // drain the rest so the child never blocks on stdout
				for sc.Scan() {
				}
			}()
			return cmd, addr
		}
	}
	cmd.Process.Kill()
	cmd.Wait()
	t.Fatalf("worker %d never reported its address", idx)
	return nil, ""
}

// TestGoldenPipelineTCPWorkerKilled is the kill-and-resume acceptance pass:
// worker depots are real OS processes, one of them exits mid-run (crash
// hook after half the frames it handles in an undisturbed run), a watchdog
// restarts it on the same port, and the run must complete through
// checkpoint rollback with output byte-identical to the undisturbed run.
func TestGoldenPipelineTCPWorkerKilled(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	dir := t.TempDir()
	_, readsPath, _ := goldenPipelineFiles(t, dir)
	const workers = 3

	// Reference: undisturbed run over in-process depots (byte-identical to
	// the in-memory shuffle by TestGoldenPipelineTCPIdentical). Depot 1's
	// frame count sizes the crash below, so a change in superstep or lane
	// counts moves the crash point with it instead of past the end of the
	// run.
	refSrvs, refPeers := startDepotServers(t, workers)
	refOut := filepath.Join(dir, "contigs_ref.fasta")
	o := defaultOpts(readsPath, refOut)
	o.k = 21
	o.workers = workers
	o.transport = "tcp"
	o.peers = refPeers
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	ref, err := os.ReadFile(refOut)
	if err != nil {
		t.Fatal(err)
	}
	crashAfter := refSrvs[1].Frames() / 2
	if crashAfter < 10 {
		t.Fatalf("reference run sent worker 1 only %d frames", refSrvs[1].Frames())
	}

	// Three depot OS processes; worker 1 crashes halfway through.
	addrs := make([]string, workers)
	cmds := make([]*exec.Cmd, workers)
	for i := range workers {
		exitAfter := 0
		if i == 1 {
			exitAfter = crashAfter
		}
		cmds[i], addrs[i] = spawnWorkerProcess(t, i, "127.0.0.1:0", exitAfter)
	}
	t.Cleanup(func() {
		for _, cmd := range cmds {
			if cmd != nil && cmd.Process != nil {
				cmd.Process.Kill()
				cmd.Wait()
			}
		}
	})

	// Watchdog: when the doomed worker dies, restart it on the same port
	// (now with no crash hook), the way an operator or supervisor would.
	restarted := make(chan struct{})
	go func() {
		defer close(restarted)
		cmds[1].Wait()
		t.Logf("worker 1 process exited, restarting on %s", addrs[1])
		var addr string
		cmds[1], addr = spawnWorkerProcess(t, 1, addrs[1], 0)
		if addr != addrs[1] {
			t.Errorf("restarted worker bound %s, want %s", addr, addrs[1])
		}
	}()

	out := filepath.Join(dir, "contigs_tcp.fasta")
	o = defaultOpts(readsPath, out)
	o.k = 21
	o.workers = workers
	o.transport = "tcp"
	o.peers = strings.Join(addrs, ",")
	o.checkpoint = filepath.Join(dir, "ckpt")
	o.ckptEvery = 3
	if err := run(o); err != nil {
		t.Fatalf("tcp run with killed worker failed: %v", err)
	}

	select {
	case <-restarted:
	case <-time.After(30 * time.Second):
		t.Fatal("worker 1 was never killed: the crash hook did not fire, so the run proved nothing")
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(ref) {
		t.Error("contig FASTA after worker kill + rollback differs from the undisturbed reference")
	}
}

// TestResumeTransportMismatchCLI drives the satellite check end to end
// through the CLI's own run path: a checkpointed TCP run, then -resume with
// the default in-memory transport, must fail naming both transports.
func TestResumeTransportMismatchCLI(t *testing.T) {
	dir := t.TempDir()
	_, readsPath, _ := goldenPipelineFiles(t, dir)
	peers := startDepots(t, 3)

	ckpt := filepath.Join(dir, "ckpt")
	o := defaultOpts(readsPath, filepath.Join(dir, "contigs_tcp.fasta"))
	o.k = 21
	o.workers = 3
	o.transport = "tcp"
	o.peers = peers
	o.checkpoint = ckpt
	o.ckptEvery = 3
	if err := run(o); err != nil {
		t.Fatal(err)
	}

	o2 := defaultOpts(readsPath, filepath.Join(dir, "contigs_mem.fasta"))
	o2.k = 21
	o2.workers = 3
	o2.checkpoint = ckpt
	o2.ckptEvery = 3
	o2.resume = true
	err := run(o2)
	if err == nil {
		t.Fatal("-resume under a different transport succeeded, want a loud failure")
	}
	for _, want := range []string{`transport "tcp"`, `transport "mem"`, "-transport=tcp"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("resume error %q does not mention %q", err, want)
		}
	}
}
