package pregel

import (
	"fmt"
	"strconv"
	"strings"
)

// Fault is one scheduled worker failure: logical worker Worker crashes at
// the Round-th BSP round observed by the plan. Rounds are counted globally
// across everything that shares the plan — every engine superstep and every
// MapReduce phase (map or reduce) ticks the counter once — so a single plan
// can target any point of a multi-job pipeline. Rounds replayed during
// recovery advance the counter too, exactly like wall-clock time on a real
// cluster: a second fault scheduled after a first one lands relative to the
// rounds actually executed, replays included.
type Fault struct {
	// Round is the 0-based global BSP round at which the failure occurs.
	Round int
	// Worker is the failing logical worker. It is taken modulo the worker
	// count of whatever job is executing when the round arrives, so one
	// plan works across jobs with different worker counts.
	Worker int
}

// FaultPlan is a deterministic worker-crash schedule for fault-injection
// testing. Install one via Config.Faults (engine jobs and mini-MapReduces
// alike); each fault fires exactly once. A FaultPlan must not be
// shared by concurrently executing jobs: pipelines tick it from their
// single-threaded coordinators in stage order.
//
// The zero value and the nil plan are both valid "no faults" plans.
type FaultPlan struct {
	faults []Fault
	fired  []bool
	seen   int
}

// NewFaultPlan builds a plan from the given faults.
func NewFaultPlan(faults ...Fault) *FaultPlan {
	return &FaultPlan{faults: faults, fired: make([]bool, len(faults))}
}

// ParseFaultPlan parses a CLI-style schedule: a comma-separated list of
// ROUND:WORKER pairs, e.g. "12:0,57:3" (crash worker 0 at global round 12,
// then worker 3 at round 57). An empty string is an empty plan. A round may
// appear once: only one fault fires per round, so a second one there would
// never fire.
func ParseFaultPlan(s string) (*FaultPlan, error) {
	var faults []Fault
	entries := map[int]string{} // round -> the entry that scheduled it
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		round, worker, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("pregel: fault %q: want ROUND:WORKER", part)
		}
		r, err := strconv.Atoi(strings.TrimSpace(round))
		if err != nil || r < 0 {
			return nil, fmt.Errorf("pregel: fault %q: bad round", part)
		}
		w, err := strconv.Atoi(strings.TrimSpace(worker))
		if err != nil || w < 0 {
			return nil, fmt.Errorf("pregel: fault %q: bad worker", part)
		}
		if prev, dup := entries[r]; dup {
			return nil, fmt.Errorf("pregel: faults %q and %q share round %d; only one worker can crash per round", prev, part, r)
		}
		entries[r] = part
		faults = append(faults, Fault{Round: r, Worker: w})
	}
	return NewFaultPlan(faults...), nil
}

// tick advances the global round counter and reports whether an unfired
// fault is scheduled for the round that just started. workers is the
// executing job's worker count (for the modulo). Safe on a nil plan.
func (p *FaultPlan) tick(workers int) (worker int, fired bool) {
	if p == nil {
		return 0, false
	}
	round := p.seen
	p.seen++
	for i, f := range p.faults {
		if !p.fired[i] && f.Round == round {
			p.fired[i] = true
			if workers <= 0 {
				workers = 1
			}
			return f.Worker % workers, true
		}
	}
	return 0, false
}

// Rounds returns the number of BSP rounds the plan has observed so far. A
// dry run with an empty plan measures a pipeline's total round count, which
// is how the crash-matrix tests enumerate every possible failure point.
func (p *FaultPlan) Rounds() int {
	if p == nil {
		return 0
	}
	return p.seen
}

// Scheduled returns the number of faults in the plan.
func (p *FaultPlan) Scheduled() int {
	if p == nil {
		return 0
	}
	return len(p.faults)
}

// FiredCount returns how many scheduled faults have fired.
func (p *FaultPlan) FiredCount() int {
	if p == nil {
		return 0
	}
	n := 0
	for _, f := range p.fired {
		if f {
			n++
		}
	}
	return n
}

// Reset rewinds the round counter and re-arms every fault.
func (p *FaultPlan) Reset() {
	if p == nil {
		return
	}
	p.seen = 0
	for i := range p.fired {
		p.fired[i] = false
	}
}
