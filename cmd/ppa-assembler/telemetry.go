package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"ppaassembler/internal/pregel"
	"ppaassembler/internal/telemetry"
)

// observability bundles the run-wide telemetry state opened from the -trace,
// -metrics, -cpuprofile and -memprofile flags. Everything is nil/off unless
// the corresponding flag was set, so the default run pays nothing.
type observability struct {
	Tracer  telemetry.Tracer
	Metrics *telemetry.Registry

	traceSink   interface{ Close() error }
	metricsPath string
	cpuProfile  *os.File
	memPath     string
}

// openObservability validates and opens every telemetry flag before any work
// is done. The returned finish func flushes and closes everything; it must
// run even when the pipeline fails, so callers defer it immediately.
func openObservability(o cliOpts) (*observability, error) {
	obs := &observability{metricsPath: o.metricsOut, memPath: o.memProfile}
	if o.trace != "" {
		f, err := os.Create(o.trace)
		if err != nil {
			return nil, err
		}
		switch o.traceFormat {
		case "", "jsonl":
			obs.traceSink = telemetry.NewJSONLWriter(f)
		case "chrome":
			obs.traceSink = telemetry.NewChromeWriter(f)
		default:
			f.Close()
			return nil, fmt.Errorf("unknown -trace-format %q (want jsonl or chrome)", o.traceFormat)
		}
		obs.Tracer = obs.traceSink.(telemetry.Tracer)
	} else if o.traceFormat != "" {
		return nil, fmt.Errorf("-trace-format requires -trace")
	}
	if o.metricsOut != "" {
		obs.Metrics = telemetry.NewRegistry()
	}
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			obs.finish()
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			obs.finish()
			return nil, err
		}
		obs.cpuProfile = f
	}
	if o.cpuProfile != "" || o.memProfile != "" {
		// Label engine goroutines (job, phase, worker) only when a profile
		// is actually being collected; labels cost a map per pprof.Do.
		pregel.EnableProfLabels(true)
	}
	return obs, nil
}

// finish stops profiles and flushes the trace and metrics files. It reports
// the first error but always attempts every close.
func (obs *observability) finish() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if obs.cpuProfile != nil {
		pprof.StopCPUProfile()
		keep(obs.cpuProfile.Close())
		obs.cpuProfile = nil
	}
	if obs.memPath != "" {
		f, err := os.Create(obs.memPath)
		if err != nil {
			keep(err)
		} else {
			runtime.GC() // capture a settled heap
			keep(pprof.WriteHeapProfile(f))
			keep(f.Close())
		}
		obs.memPath = ""
	}
	if obs.traceSink != nil {
		keep(obs.traceSink.Close())
		obs.traceSink = nil
	}
	if obs.Metrics != nil && obs.metricsPath != "" {
		f, err := os.Create(obs.metricsPath)
		if err != nil {
			keep(err)
		} else {
			keep(obs.Metrics.WritePrometheus(f))
			keep(f.Close())
		}
		obs.metricsPath = ""
	}
	return first
}

// printFaults appends the fault-injection line to the run summary when a
// -faultplan was given. It says "all recovered" only when every scheduled
// fault fired: a fault scheduled past the run's last round never fires.
func printFaults(p *pregel.FaultPlan, every int) {
	if p == nil {
		return
	}
	fired, scheduled := p.FiredCount(), p.Scheduled()
	outcome := "all recovered"
	if fired < scheduled {
		outcome = fmt.Sprintf("%d recovered, %d never fired (the run ended before its round)", fired, scheduled-fired)
	}
	fmt.Fprintf(os.Stderr, "faults injected:   %d/%d fired, %s (checkpoint every %d supersteps)\n",
		fired, scheduled, outcome, every)
}

// printCheckpointIO appends the checkpoint I/O line to the run summary when
// any checkpoint was saved or restored.
func printCheckpointIO(saves, restores int64, written, restored int64) {
	if saves == 0 && restores == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "checkpoint I/O:    %d saves (%d bytes written), %d restores (%d bytes read)\n",
		saves, written, restores, restored)
}
