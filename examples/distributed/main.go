// Distributed: run the full assembly pipeline over the TCP transport —
// real sockets, real framed lanes, real worker death — and prove the
// distributed run is byte-identical to the in-memory one.
//
// The topology is coordinator-centric: compute stays in this process, and
// each worker is a lane depot (an external shuffle service) that stores
// the encoded message lanes addressed to it. Here the three depots live
// in-process on ephemeral localhost ports so the example is self-contained
// and self-terminating, but they speak the exact protocol of the real
// multi-process deployment:
//
//	ppa-assembler -serve-worker 0 -listen 127.0.0.1:9000 &
//	ppa-assembler -serve-worker 1 -listen 127.0.0.1:9001 &
//	ppa-assembler -serve-worker 2 -listen 127.0.0.1:9002 &
//	ppa-assembler -in reads.fastq -out contigs.fasta -workers 3 \
//	  -transport=tcp -peers 127.0.0.1:9000,127.0.0.1:9001,127.0.0.1:9002 \
//	  -checkpoint ckpts -ckpt-every 5
//
// Mid-run, depot 1 kills itself after a fixed number of frames; a watchdog
// restarts it on the same port — empty, the way a respawned process comes
// back. The next lane read from it fails, the engine reports the worker
// down, rolls back to its latest checkpoint and replays. The final contigs
// still match the in-memory reference byte for byte.
//
// Run with: go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"runtime"
	"sort"
	"strings"

	"ppaassembler/internal/core"
	"ppaassembler/internal/genome"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/readsim"
	"ppaassembler/internal/transport"
)

const workers = 3

func assemble(reads []string, mutate func(*core.Options)) *core.Result {
	opt := core.DefaultOptions(workers)
	opt.K = 21
	if mutate != nil {
		mutate(&opt)
	}
	res, err := core.Assemble(pregel.ShardSlice(reads, opt.Workers), opt)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

// fingerprint canonicalizes a contig set for comparison.
func fingerprint(res *core.Result) string {
	var seqs []string
	for _, c := range res.Contigs {
		seq := c.Node.Seq.String()
		if rc := c.Node.Seq.ReverseComplement().String(); rc < seq {
			seq = rc
		}
		seqs = append(seqs, seq)
	}
	sort.Strings(seqs)
	return strings.Join(seqs, "\n")
}

// startDepot brings up one in-process lane depot on an ephemeral localhost
// port and returns its bound address.
func startDepot(worker int) (*transport.WorkerServer, string) {
	srv := &transport.WorkerServer{Worker: worker}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve()
	return srv, addr
}

func main() {
	ref, err := genome.Generate(genome.Spec{Name: "dist", Length: 30_000, Seed: 21})
	if err != nil {
		log.Fatal(err)
	}
	reads, err := readsim.Simulate(ref, readsim.Profile{ReadLen: 100, Coverage: 16, Seed: 22})
	if err != nil {
		log.Fatal(err)
	}

	// 1. In-memory reference: the historical zero-copy shuffle.
	mem := assemble(reads, nil)
	fmt.Printf("in-memory run:   %d contigs, %.2fs simulated\n",
		len(mem.Contigs), mem.SimSeconds)

	// 2. Three lane depots, one per logical worker. Depot 1 is rigged to
	// die after 60 frames; the watchdog below respawns it on the same
	// port with an empty depot, exactly like a restarted OS process.
	peers := make([]string, workers)
	restarted := make(chan string, 1)
	for w := 0; w < workers; w++ {
		srv, addr := startDepot(w)
		peers[w] = addr
		if w == 1 {
			crashed := make(chan struct{})
			srv.ExitAfterFrames = 60
			srv.Exit = func(int) {
				srv.Close()
				close(crashed)
				runtime.Goexit() // end the handler goroutine like os.Exit would
			}
			go func(addr string) {
				<-crashed
				respawn := &transport.WorkerServer{Worker: 1}
				if _, err := respawn.Listen(addr); err != nil {
					log.Fatalf("respawn depot 1: %v", err)
				}
				go respawn.Serve()
				restarted <- addr
			}(addr)
		}
	}

	tp, err := transport.DialTCP(transport.TCPOptions{Peers: peers})
	if err != nil {
		log.Fatal(err)
	}
	defer tp.Close()
	fmt.Printf("depots:          %s\n", strings.Join(peers, " "))

	// 3. The same assembly over TCP, checkpointing every 3 rounds so the
	// engine has something to roll back to when depot 1 dies.
	tcp := assemble(reads, func(o *core.Options) {
		o.Transport = tp
		o.CheckpointEvery = 3
	})
	c := tp.Counters()
	fmt.Printf("tcp run:         %d contigs, %.2fs simulated\n",
		len(tcp.Contigs), tcp.SimSeconds)
	fmt.Printf("wire traffic:    %d frames / %.1f MiB sent, %d frames / %.1f MiB received, %d barriers\n",
		c.FramesSent, float64(c.BytesSent)/(1<<20),
		c.FramesRecv, float64(c.BytesRecv)/(1<<20), c.Barriers)

	select {
	case addr := <-restarted:
		fmt.Printf("worker death:    depot 1 crashed after 60 frames and was respawned on %s;\n", addr)
		fmt.Printf("                 the engine rolled back to its latest checkpoint and replayed\n")
	default:
		log.Fatal("depot 1 never crashed — the workload was too small to trip the crash hook")
	}

	if fingerprint(tcp) != fingerprint(mem) {
		log.Fatal("distributed contigs differ from the in-memory run!")
	}
	fmt.Println("                 contigs byte-identical to the in-memory run ✓")
}
