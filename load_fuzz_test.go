package wavescalar

import (
	"strings"
	"testing"

	"wavescalar/internal/workloads"
)

// probeSrc is the program scripts/smoke.sh runs. Two one-number edits of
// its printed binary (probeEdits) break its wave-ordering chain in ways
// only a load-time check sees before the program runs.
const probeSrc = `
global a[16];

func main() {
	var s = 0;
	for var i = 0; i < 16; i = i + 1 {
		if i % 3 == 0 {
			a[i] = i * i;
		} else {
			a[i] = i + 1;
		}
	}
	for var i = 0; i < 16; i = i + 1 {
		s = s + a[i];
	}
	return s;
}
`

// probeEdits rewrite one annotation of probeSrc's binary at -unroll 1
// (asm prints mem=kind,seq,pred,succ), with the error the loader must
// refuse the result with.
var probeEdits = []struct{ from, to, want string }{
	// A store's successor names no operation: the store buffer would wait
	// for it forever.
	{"mem=store,3,2,5", "mem=store,3,2,9", "main wave 1: {store 2.3.9} succ names nothing"},
	// A MEMORY-NOP names a successor on another path, whose own
	// predecessor is someone else: the two ends of the link disagree.
	{"mem=nop,6,5,8", "mem=nop,6,5,7", "main wave 1: {nop 5.6.7} -> {nop 1.7.$} disagree"},
}

// unrolledOnce prints src's binary as `wavec -unroll 1` does.
func unrolledOnce(tb testing.TB, src string) string {
	tb.Helper()
	cfg := DefaultCompileConfig()
	cfg.Unroll = 1
	p, err := Compile(src, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return p.Disassemble()
}

// probeTexts returns probeSrc's binary with each of probeEdits applied.
func probeTexts(tb testing.TB) []string {
	text := unrolledOnce(tb, probeSrc)
	var out []string
	for _, e := range probeEdits {
		if strings.Count(text, e.from) != 1 {
			tb.Fatalf("probe binary no longer has one %q to edit", e.from)
		}
		out = append(out, strings.Replace(text, e.from, e.to, 1))
	}
	return out
}

// TestParseAssemblyRefusesBrokenChains: both probe edits are refused at
// load, naming the function, the wave and the annotations, while the
// unedited binary loads and runs to its value.
func TestParseAssemblyRefusesBrokenChains(t *testing.T) {
	p, err := ParseAssembly(unrolledOnce(t, probeSrc))
	if err != nil {
		t.Fatalf("unedited probe binary refused: %v", err)
	}
	if r, err := p.Interpret(); err != nil || r.Value != 580 {
		t.Fatalf("unedited probe binary: %d, %v; want 580", r.Value, err)
	}
	for i, text := range probeTexts(t) {
		_, err := ParseAssembly(text)
		if err == nil || !strings.Contains(err.Error(), probeEdits[i].want) {
			t.Errorf("%s -> %s: ParseAssembly = %v, want an error containing %q",
				probeEdits[i].from, probeEdits[i].to, err, probeEdits[i].want)
		}
	}
}

// Bounds of one FuzzLoadAndRun input: small enough that a seed kernel stops
// on them long before it finishes.
const (
	fuzzFuel      = 20_000
	fuzzMaxCycles = 2_000
)

// FuzzLoadAndRun is the load contract over the public API: whatever text
// ParseAssembly accepts runs on the interpreter and on the WaveCache in
// each memory mode, and every run ends in a value or an error within its
// bound, never in a panic or a run past it. Seeds: the ten kernels printed
// at -unroll 1, the two probe edits, and an address space larger than
// isa.MaxMemWords, which the loader must refuse rather than allocate.
// `make fuzz` searches further.
func FuzzLoadAndRun(f *testing.F) {
	for _, w := range workloads.All {
		f.Add(unrolledOnce(f, w.Src))
	}
	for _, text := range probeTexts(f) {
		f.Add(text)
	}
	text := unrolledOnce(f, probeSrc)
	f.Add("memwords 999999999999999" + text[strings.IndexByte(text, '\n'):])
	f.Fuzz(func(t *testing.T, text string) {
		p, err := ParseAssembly(text)
		if err != nil {
			return // refusing malformed input is a correct outcome
		}
		if r, err := p.InterpretWithFuel(fuzzFuel); err == nil && r.Fired > fuzzFuel {
			t.Fatalf("interpreter fired %d instructions on a budget of %d", r.Fired, fuzzFuel)
		}
		for _, mode := range []string{"wave-ordered", "serialized", "ideal", "spec"} {
			r, err := p.Simulate(SimConfig{MemoryMode: mode, MaxCycles: fuzzMaxCycles})
			if err == nil && r.Cycles > fuzzMaxCycles+1 {
				t.Fatalf("%s: ran %d cycles on a bound of %d", mode, r.Cycles, fuzzMaxCycles)
			}
		}
	})
}
