package harness

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"wavescalar/internal/asm"
	"wavescalar/internal/linear"
	"wavescalar/internal/workloads"
)

// compile_digests.txt pins the *output* of the compile pipeline: a SHA-256
// of every binary CompileSource emits (the asm text of the steer, select and
// rolled dataflow programs and a listing of the linear one) beside the
// checksum, the work count and the optimizer and chain counters, for the ten
// kernels and testprogs.CorpusSpecs(100, 1) at both optimizer tiers.
// TestCompileSourceMatchesFourBuilds compares CompileSource to a pipeline
// assembled from the same passes, so it cannot see a pass change its output;
// this file can. It was recorded before the compile path was reworked for
// speed and a change that claims to be output-preserving must leave it
// byte-identical. Regenerate (only for a change meant to alter emitted code):
//
//	go test ./internal/harness -run TestCompileSourceDigestsPinned -update-compile-digests
var updateCompileDigests = flag.Bool("update-compile-digests", false, "rewrite testdata/compile_digests.txt from the current compiler")

const compileDigestsPath = "testdata/compile_digests.txt"

// linearListing renders a linear program as text: every field an engine
// reads is in it.
func linearListing(p *linear.Program) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "entry %d memwords %d\n", p.Entry, p.MemWords)
	for _, g := range p.Globals {
		fmt.Fprintf(&sb, "global %s @%d size %d init %v\n", g.Name, g.Addr, g.Size, g.Init)
	}
	for _, f := range p.Funcs {
		fmt.Fprintf(&sb, "func %s params %v regs %d\n", f.Name, f.Params, f.NumRegs)
		for i := range f.Code {
			fmt.Fprintf(&sb, "%4d  %s\n", i, f.Disasm(i))
		}
	}
	return sb.String()
}

func compileDigestLine(name string, opt int) (string, error) {
	c, err := CompileSource(name, workloads.ByName(name).Src, CompileOptions{Unroll: 4, OptLevel: opt})
	if err != nil {
		return "", err
	}
	sum := func(text string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(text))) }
	return fmt.Sprintf("%s O%d steer=%s select=%s rolled=%s linear=%s checksum=%d useful=%d memopt=%+v chains=%+v",
		name, opt, sum(asm.Print(c.Wave)), sum(asm.Print(c.WaveSel)), sum(asm.Print(c.WaveNoUn)), sum(linearListing(c.Linear)),
		c.Checksum, c.UsefulInstrs, c.MemOpt, c.Chains), nil
}

func TestCompileSourceDigestsPinned(t *testing.T) {
	var got []string
	for _, name := range compileCorpus(100) {
		for opt := 0; opt <= 1; opt++ {
			line, err := compileDigestLine(name, opt)
			if err != nil {
				t.Fatalf("%s O%d: %v", name, opt, err)
			}
			got = append(got, line)
		}
	}
	pinnedLines(t, compileDigestsPath, *updateCompileDigests, "-update-compile-digests", got, nil)
}

// pinnedLines holds got to the lines recorded in the file at path — those keep
// accepts, numbered among themselves, when keep is not nil — or, when update
// is set, rewrites the file from got.
func pinnedLines(t *testing.T, path string, update bool, updateFlag string, got []string, keep func(string) bool) {
	t.Helper()
	if update {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d lines to %s", len(got), path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing %s (run with %s to create): %v", path, updateFlag, err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if keep != nil {
		want = slices.DeleteFunc(want, func(line string) bool { return !keep(line) })
	}
	for i := 0; i < min(len(got), len(want)); i++ {
		if got[i] != want[i] {
			t.Errorf("%s line %d changed:\n got:  %s\n want: %s", path, i+1, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d lines, %d recorded in %s", len(got), len(want), path)
	}
}
