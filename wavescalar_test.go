package wavescalar

import (
	"errors"
	"strings"
	"testing"

	"wavescalar/internal/asm"
	"wavescalar/internal/harness"
	"wavescalar/internal/workloads"
)

const demoSrc = `
global a[32];

func main() {
	var s = 0;
	for var i = 0; i < 32; i = i + 1 {
		a[i] = i * i;
	}
	for var i = 0; i < 32; i = i + 1 {
		s = s + a[i];
	}
	return s;
}
`

const demoWant = 10416 // sum of squares 0..31

func TestCompileAndAllEngines(t *testing.T) {
	prog, err := Compile(demoSrc, DefaultCompileConfig())
	if err != nil {
		t.Fatal(err)
	}
	ir, err := prog.Interpret()
	if err != nil {
		t.Fatal(err)
	}
	if ir.Value != demoWant {
		t.Fatalf("interpret = %d, want %d", ir.Value, demoWant)
	}
	if ir.Fired == 0 || ir.Steers == 0 || ir.WaveAdvances == 0 || ir.MemoryOps == 0 {
		t.Errorf("interpret stats look empty: %+v", ir)
	}

	sim, err := prog.Simulate(DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sim.Value != demoWant {
		t.Fatalf("simulate = %d, want %d", sim.Value, demoWant)
	}
	if sim.Cycles <= 0 || sim.IPC <= 0 || sim.PEsUsed == 0 {
		t.Errorf("simulate stats look empty: %+v", sim)
	}

	base, err := prog.SimulateBaseline()
	if err != nil {
		t.Fatal(err)
	}
	if base.Value != demoWant {
		t.Fatalf("baseline = %d, want %d", base.Value, demoWant)
	}
	if base.Cycles <= 0 || base.IPC <= 0 {
		t.Errorf("baseline stats look empty: %+v", base)
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile("this is not wsl", DefaultCompileConfig()); err == nil {
		t.Error("garbage source accepted")
	}
	if _, err := Compile(`func f() { return 0; }`, DefaultCompileConfig()); err == nil {
		t.Error("program without main accepted")
	}
}

// TestCompileIsCompileSource: the public door builds the binary the other
// doors build for the same options — the zero config included, which is
// unroll off at -O0 — and reports CompileSource's errors.
func TestCompileIsCompileSource(t *testing.T) {
	for _, name := range []string{"lu", "fft", "ammp"} {
		src := workloads.ByName(name).Src
		for _, cc := range []CompileConfig{{}, {Unroll: 1, OptLevel: 1, UseSelect: true}} {
			prog, err := Compile(src, cc)
			if err != nil {
				t.Fatal(err)
			}
			c, err := harness.CompileSource(name, src, harness.CompileOptions{Unroll: cc.Unroll, OptLevel: cc.OptLevel})
			if err != nil {
				t.Fatal(err)
			}
			bin := c.Wave
			if cc.UseSelect {
				bin = c.WaveSel
			}
			if prog.Disassemble() != asm.Print(bin) {
				t.Errorf("%s %+v: Compile's binary differs from CompileSource's", name, cc)
			}
		}
	}
	bad := `func main() { return x; }`
	_, want := harness.CompileSource("wavescalar", bad, harness.CompileOptions{Binaries: []string{"steer"}})
	_, err := Compile(bad, CompileConfig{})
	if err == nil || want == nil || err.Error() != want.Error() || !strings.Contains(err.Error(), "frontend: ") {
		t.Errorf("ill-typed source: Compile error %v, want CompileSource's %v", err, want)
	}
}

// TestSimulateBaselineChecksum: the baseline's value is the checksum the
// compile's reference runs agreed on; an assembled program has no baseline.
func TestSimulateBaselineChecksum(t *testing.T) {
	prog, err := Compile(demoSrc, CompileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := prog.SimulateBaseline()
	if err != nil {
		t.Fatal(err)
	}
	if base.Value != prog.compiled.Checksum || base.Value != demoWant {
		t.Errorf("baseline value %d, compile checksum %d, want %d", base.Value, prog.compiled.Checksum, demoWant)
	}
	back, err := ParseAssembly(prog.Disassemble())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := back.SimulateBaseline(); !errors.Is(err, ErrNoBaseline) {
		t.Errorf("assembled program: %v, want ErrNoBaseline", err)
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	prog, err := Compile(demoSrc, DefaultCompileConfig())
	if err != nil {
		t.Fatal(err)
	}
	text := prog.Disassemble()
	if !strings.Contains(text, "func main") || !strings.Contains(text, "mem=") {
		t.Fatalf("disassembly looks wrong:\n%s", text[:200])
	}
	back, err := ParseAssembly(text)
	if err != nil {
		t.Fatal(err)
	}
	ir, err := back.Interpret()
	if err != nil {
		t.Fatal(err)
	}
	if ir.Value != demoWant {
		t.Fatalf("round-tripped program computes %d, want %d", ir.Value, demoWant)
	}
}

func TestSimConfigVariants(t *testing.T) {
	prog, err := Compile(demoSrc, DefaultCompileConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []SimConfig{
		{GridW: 1, GridH: 1},
		{MemoryMode: "serialized"},
		{MemoryMode: "ideal"},
		{Placement: "random"},
		{Density: 4},
	} {
		res, err := prog.Simulate(sc)
		if err != nil {
			t.Fatalf("%+v: %v", sc, err)
		}
		if res.Value != demoWant {
			t.Errorf("%+v: value %d", sc, res.Value)
		}
	}
	// What waved answers with a 400 is an error here too, not a panic and
	// not a silently different machine.
	for _, sc := range []SimConfig{
		{MemoryMode: "nope"},
		{Placement: "nope"},
		{GridW: 9, GridH: 9},
		{GridW: -1},
		{Density: -1},
		{InputQueue: -1},
		{MaxCycles: -5},
		{Faults: "defect=x"},
		{Faults: "kill=100000@5"},
	} {
		if _, err := prog.Simulate(sc); err == nil {
			t.Errorf("%+v accepted", sc)
		}
	}
	for _, cc := range []CompileConfig{
		{Unroll: -1},
		{OptLevel: 7},
		{OptLevel: -1},
	} {
		if _, err := Compile(demoSrc, cc); err == nil {
			t.Errorf("%+v accepted", cc)
		}
	}
}

func TestUseSelectVariant(t *testing.T) {
	cfg := DefaultCompileConfig()
	cfg.UseSelect = true
	prog, err := Compile(demoSrc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ir, err := prog.Interpret()
	if err != nil {
		t.Fatal(err)
	}
	if ir.Value != demoWant {
		t.Fatalf("select variant computes %d", ir.Value)
	}
}

// TestPlacementPolicies: the six built-in policies are the only names, so
// any other, "profile-feedback" included, is refused like an unknown name —
// the error wavesim's -placement flag reports.
func TestPlacementPolicies(t *testing.T) {
	if got := PlacementPolicies(); len(got) != 6 {
		t.Errorf("placement policies %v, want the six built-ins", got)
	}
	prog, err := Compile(demoSrc, DefaultCompileConfig())
	if err != nil {
		t.Fatal(err)
	}
	sc := DefaultSimConfig()
	sc.Placement = "profile-feedback"
	if _, err := prog.Simulate(sc); err == nil || !strings.Contains(err.Error(), `unknown placement policy "profile-feedback"`) {
		t.Errorf("Simulate with placement profile-feedback: %v, want the unknown-policy error", err)
	}
}

func TestExportDot(t *testing.T) {
	prog, err := Compile(demoSrc, DefaultCompileConfig())
	if err != nil {
		t.Fatal(err)
	}
	dot, err := prog.ExportDot("")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot, "digraph") {
		t.Error("dot output missing digraph")
	}
	if _, err := prog.ExportDot("nope"); err == nil {
		t.Error("unknown function accepted")
	}
}
