package wavescalar

import (
	"strings"
	"testing"
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

	base, err := prog.SimulateBaseline(DefaultBaselineConfig())
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
	if _, err := back.SimulateBaseline(DefaultBaselineConfig()); err != ErrNoBaseline {
		t.Errorf("expected ErrNoBaseline, got %v", err)
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
		{Density: 4, PEStore: 8},
		{L1Words: 64},
	} {
		res, err := prog.Simulate(sc)
		if err != nil {
			t.Fatalf("%+v: %v", sc, err)
		}
		if res.Value != demoWant {
			t.Errorf("%+v: value %d", sc, res.Value)
		}
	}
	// What waved answers with a 400 is an error here too, not a panic
	// (PEStore: -1 was one) and not a silently different machine.
	for _, sc := range []SimConfig{
		{MemoryMode: "nope"},
		{Placement: "nope"},
		{GridW: 9, GridH: 9},
		{GridW: -1},
		{Density: -1},
		{PEStore: -1},
		{InputQueue: -1},
		{L1Words: 17},
		{L1Words: -64},
		{Fuel: -1},
		{MaxCycles: -5},
		{Faults: "defect=x"},
		{Faults: "kill=100000@5"},
	} {
		if _, err := prog.Simulate(sc); err == nil {
			t.Errorf("%+v accepted", sc)
		}
	}
	for _, cc := range []CompileConfig{
		{Unroll: -1, Optimize: true},
		{Optimize: true, OptLevel: 7},
		{Optimize: true, OptLevel: -1},
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
// profile feedback, which E14 builds for itself, is refused like any unknown
// name — the error wavesim's -placement flag reports.
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

func TestExportDotAndBinary(t *testing.T) {
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
	data := prog.EncodeBinary()
	back, err := DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := back.Interpret()
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != demoWant {
		t.Fatalf("binary round trip computes %d, want %d", res.Value, demoWant)
	}
	if _, err := DecodeBinary([]byte("junk")); err == nil {
		t.Error("junk binary accepted")
	}
}
