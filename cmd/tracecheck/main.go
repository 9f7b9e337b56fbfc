// Command tracecheck validates the observability artifacts emitted by
// ppa-assembler: a trace file (-trace-format jsonl or chrome) and/or a
// Prometheus-text metrics dump. It is the CI fence for the telemetry
// contract — it fails when a trace is not well-formed JSON, when begin/end
// spans are unbalanced, when a required span category is missing, when a
// workflow op's End span lacks its memory args, or when an expected metric
// family was not exported.
//
// Usage:
//
//	tracecheck -format chrome trace.json
//	tracecheck -format jsonl -require workflow,pregel,phase,mr trace.jsonl
//	tracecheck -metrics metrics.prom
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

func main() {
	format := flag.String("format", "chrome", "trace file format: chrome or jsonl")
	require := flag.String("require", "workflow,pregel,phase,mr", "comma-separated span categories that must appear in the trace")
	metricsPath := flag.String("metrics", "", "also validate this Prometheus-text metrics file")
	requireMetrics := flag.String("require-metrics", "pregel_messages_local_total,pregel_messages_remote_total,pregel_supersteps_total,workflow_ops_total", "comma-separated metric families that must appear in -metrics")
	flag.Parse()

	requireCats := splitList(*require)
	requiredMetricList := splitList(*requireMetrics)

	ok := true
	if flag.NArg() > 1 {
		fail("at most one trace file, got %d", flag.NArg())
	}
	if flag.NArg() == 1 {
		events, err := loadTrace(flag.Arg(0), *format)
		if err != nil {
			fail("%s: %v", flag.Arg(0), err)
		}
		if cerr := checkEvents(events, requireCats); cerr != nil {
			fmt.Fprintf(os.Stderr, "tracecheck: %s: %v\n", flag.Arg(0), cerr)
			ok = false
		} else {
			fmt.Printf("%s: %d events OK\n", flag.Arg(0), len(events))
		}
	}
	if *metricsPath != "" {
		n, err := checkMetrics(*metricsPath, requiredMetricList)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracecheck: %s: %v\n", *metricsPath, err)
			ok = false
		} else {
			fmt.Printf("%s: %d metric families OK\n", *metricsPath, n)
		}
	}
	if flag.NArg() == 0 && *metricsPath == "" {
		fail("nothing to check; pass a trace file and/or -metrics")
	}
	if !ok {
		os.Exit(1)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracecheck: "+format+"\n", args...)
	os.Exit(2)
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// event is the shared shape of one trace record in either format.
type event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Args map[string]any `json:"args"`

	// chrome only
	Ts  *float64 `json:"ts"`
	Pid *int     `json:"pid"`
	Tid *int     `json:"tid"`
	S   string   `json:"s"` // instant scope
	// jsonl only
	WallNs *int64 `json:"wall_ns"`
}

func loadTrace(path, format string) ([]event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch format {
	case "chrome":
		var events []event
		dec := json.NewDecoder(bufio.NewReader(f))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&events); err != nil {
			return nil, fmt.Errorf("not a JSON array of trace events: %v", err)
		}
		for i, e := range events {
			if e.Ts == nil || e.Pid == nil || e.Tid == nil {
				return nil, fmt.Errorf("event %d: missing ts/pid/tid", i)
			}
			if *e.Ts < 0 {
				return nil, fmt.Errorf("event %d: negative ts %v", i, *e.Ts)
			}
		}
		return events, nil
	case "jsonl":
		var events []event
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		for ln := 1; sc.Scan(); ln++ {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			var e event
			if err := json.Unmarshal([]byte(line), &e); err != nil {
				return nil, fmt.Errorf("line %d: %v", ln, err)
			}
			if e.WallNs == nil {
				return nil, fmt.Errorf("line %d: missing wall_ns", ln)
			}
			events = append(events, e)
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return events, nil
	default:
		return nil, fmt.Errorf("unknown -format %q (want chrome or jsonl)", format)
	}
}

// opEndArgs are the measured args every workflow op End span carries.
var opEndArgs = []string{"alloc_bytes", "alloc_objects", "gc_cpu_ns", "heap_live_max_bytes"}

// checkEvents enforces the structural contract: every event is named and
// categorized, ph is B/E/i, begin/end spans balance per (cat, name), every
// workflow op End span carries opEndArgs as numbers, and every required
// category appears at least once.
func checkEvents(events []event, requireCats []string) error {
	if len(events) == 0 {
		return fmt.Errorf("empty trace")
	}
	open := map[string]int{}
	cats := map[string]bool{}
	for i, e := range events {
		if e.Name == "" || e.Cat == "" {
			return fmt.Errorf("event %d: missing name or cat", i)
		}
		cats[e.Cat] = true
		key := e.Cat + "/" + e.Name
		switch e.Ph {
		case "B":
			open[key]++
		case "E":
			open[key]--
			if open[key] < 0 {
				return fmt.Errorf("event %d: end without begin for %s", i, key)
			}
			if key == "workflow/op" {
				for _, a := range opEndArgs {
					if _, ok := e.Args[a].(float64); !ok {
						return fmt.Errorf("event %d: op End span without a numeric %q arg", i, a)
					}
				}
			}
		case "i":
			// instants carry no balance
		default:
			return fmt.Errorf("event %d: unknown phase %q", i, e.Ph)
		}
	}
	for key, n := range open {
		if n != 0 {
			return fmt.Errorf("unbalanced span %s: %d begin(s) never ended", key, n)
		}
	}
	for _, c := range requireCats {
		if !cats[c] {
			return fmt.Errorf("required span category %q absent (saw %s)", c, strings.Join(keys(cats), ", "))
		}
	}
	return nil
}

// checkMetrics validates the Prometheus text exposition shape: every sample
// belongs to a preceding # TYPE family, and the required families exist.
func checkMetrics(path string, required []string) (families int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	typed := map[string]bool{}
	var current string
	sc := bufio.NewScanner(f)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				return 0, fmt.Errorf("line %d: malformed # TYPE line", ln)
			}
			switch fields[3] {
			case "counter", "gauge", "histogram":
			default:
				return 0, fmt.Errorf("line %d: unknown metric type %q", ln, fields[3])
			}
			current = fields[2]
			typed[current] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if current == "" || !strings.HasPrefix(name, current) {
			return 0, fmt.Errorf("line %d: sample %q without a preceding # TYPE", ln, name)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	for _, want := range required {
		if !typed[want] {
			return 0, fmt.Errorf("required metric family %q absent (saw %s)", want, strings.Join(keys(typed), ", "))
		}
	}
	return len(typed), nil
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
