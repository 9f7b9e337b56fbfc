package workflow

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Spec grammar — the CLI surface of the workflow layer:
//
//	spec  = op *("," op)
//	op    = name *(":" key "=" value)
//
// e.g. "build,label,merge,bubble,rebuild,link,tiptrim:minlen=40,label,merge,fasta".
// Op names come from a Registry; parameters are op-specific and parsed by
// the op's factory through Params, which rejects unknown keys. A ":"
// segment without "=" continues the previous parameter's value, so values
// containing colons (path=/data/run:3) survive the split.

// Factory builds one configured op from spec parameters.
type Factory[S any] func(p *Params) (Op[S], error)

// Registry maps spec op names to factories. Aliases may map several names
// to one factory (e.g. "listrank" and "svlabel" to pre-configured label
// ops).
type Registry[S any] map[string]Factory[S]

// Names lists the registered op names, sorted.
func (r Registry[S]) Names() []string {
	names := make([]string, 0, len(r))
	for n := range r {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Parse compiles a spec string into a validated plan whose initial live
// artifacts are initial. Errors name the offending op and parameter.
func Parse[S any](reg Registry[S], spec string, initial ...Artifact) (*Plan[S], error) {
	plan := NewPlan[S](initial...)
	toks := strings.Split(spec, ",")
	n := 0
	for _, tok := range toks {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		fields := strings.Split(tok, ":")
		name := strings.TrimSpace(fields[0])
		fac, ok := reg[name]
		if !ok {
			return nil, fmt.Errorf("workflow: unknown op %q (have %s)", name, strings.Join(reg.Names(), ", "))
		}
		params := &Params{op: name, vals: map[string]string{}}
		lastKey := ""
		for _, kv := range fields[1:] {
			key, val, ok := strings.Cut(kv, "=")
			if !ok || strings.TrimSpace(key) == "" {
				// No "=": this segment is the tail of a value that itself
				// contained a colon.
				if lastKey == "" {
					return nil, fmt.Errorf("workflow: op %q: malformed parameter %q (want key=value)", name, kv)
				}
				params.vals[lastKey] += ":" + kv
				continue
			}
			key = strings.TrimSpace(key)
			if _, dup := params.vals[key]; dup {
				return nil, fmt.Errorf("workflow: op %q: duplicate parameter %q", name, key)
			}
			params.vals[key] = strings.TrimSpace(val)
			lastKey = key
		}
		op, err := fac(params)
		if err != nil {
			return nil, fmt.Errorf("workflow: op %q: %w", name, err)
		}
		if err := params.unused(); err != nil {
			return nil, fmt.Errorf("workflow: op %q: %w", name, err)
		}
		plan.Then(op)
		n++
	}
	if n == 0 {
		return nil, fmt.Errorf("workflow: empty spec")
	}
	if err := plan.Err(); err != nil {
		return nil, err
	}
	return plan, nil
}

// Params carries one op's spec parameters into its factory, with typed
// accessors that fall back to a default when the key is absent. Keys never
// read by the factory are reported as errors by Parse, so typos fail
// loudly instead of silently running with defaults.
type Params struct {
	op   string
	vals map[string]string
	used []string
	err  error
}

func (p *Params) get(key string) (string, bool) {
	v, ok := p.vals[key]
	if ok {
		p.used = append(p.used, key)
	}
	return v, ok
}

func (p *Params) fail(key, val, want string) {
	if p.err == nil {
		p.err = fmt.Errorf("parameter %s=%q: want %s", key, val, want)
	}
}

// Str returns the string parameter key, or def when absent.
func (p *Params) Str(key, def string) string {
	if v, ok := p.get(key); ok {
		return v
	}
	return def
}

// Int returns the integer parameter key, or def when absent.
func (p *Params) Int(key string, def int) int {
	v, ok := p.get(key)
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		p.fail(key, v, "an integer")
		return def
	}
	return n
}

// Uint32 returns the unsigned parameter key, or def when absent.
func (p *Params) Uint32(key string, def uint32) uint32 {
	v, ok := p.get(key)
	if !ok {
		return def
	}
	n, err := strconv.ParseUint(v, 10, 32)
	if err != nil {
		p.fail(key, v, "a non-negative integer")
		return def
	}
	return uint32(n)
}

// Float returns the float parameter key, or def when absent.
func (p *Params) Float(key string, def float64) float64 {
	v, ok := p.get(key)
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		p.fail(key, v, "a number")
		return def
	}
	return f
}

// Err surfaces the first malformed-value error; factories should return it
// after reading their parameters.
func (p *Params) Err() error { return p.err }

// unused reports keys the factory never read.
func (p *Params) unused() error {
	for key := range p.vals {
		seen := false
		for _, u := range p.used {
			if u == key {
				seen = true
				break
			}
		}
		if !seen {
			return fmt.Errorf("unknown parameter %q", key)
		}
	}
	return nil
}
