package workflow_test

import (
	"reflect"
	"testing"

	"ppaassembler/internal/core"
	"ppaassembler/internal/workflow"
)

// FuzzParseSpec runs arbitrary spec strings against the assembler's op
// registry, the grammar behind ppa-assembler -workflow: Parse returns a plan
// or an error, never both and never a panic, and parsing an accepted spec
// again gives the same op list.
func FuzzParseSpec(f *testing.F) {
	for _, spec := range []string{
		"build,label,merge,bubble,rebuild,link,tiptrim,label,merge,fasta",
		"build:k=31:theta=2,svlabel,merge:tiplen=40,fasta:minlen=100",
		"build,label:algo=sv,merge:tiplen=4:0,fasta",
		"build,listrank,merge,bubble:editdist=3:mincov=2,rebuild,split:ratio=4,link,tiptrim:minlen=40,label,merge,fasta,scaffold:insert=700:insertsd=60:minsupport=2:minlen=300:seed=25",
		"build:k=20,label,merge,fasta",
		"build,merge,fasta",
		"build,, label:algo=xx",
		"build:k=1:k=2",
		"build:k",
		":",
		"",
	} {
		f.Add(spec)
	}
	reg := core.OpRegistry(core.DefaultOptions(1))
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := workflow.Parse(reg, spec, core.ArtReads, core.ArtPairs)
		if (plan == nil) == (err == nil) {
			t.Fatalf("Parse(%q) = %v, %v: want exactly one of a plan and an error", spec, plan, err)
		}
		if err != nil {
			return
		}
		again, err := workflow.Parse(reg, spec, core.ArtReads, core.ArtPairs)
		if err != nil {
			t.Fatalf("Parse(%q) accepted the spec once, then failed: %v", spec, err)
		}
		if !reflect.DeepEqual(plan.Ops(), again.Ops()) || plan.String() != again.String() {
			t.Fatalf("Parse(%q) twice: ops %v then %v", spec, plan, again)
		}
	})
}
