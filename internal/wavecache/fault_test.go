package wavecache

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"wavescalar/internal/fault"
	"wavescalar/internal/isa"
	"wavescalar/internal/lang"
	"wavescalar/internal/placement"
	"wavescalar/internal/testprogs"
	"wavescalar/internal/workloads"
)

// faultRun compiles src and simulates it under the given fault config on a
// 2x2 grid, installing the config's defect map so placement and simulator
// agree. tweak, if given, adjusts the machine config first.
func faultRun(t *testing.T, src string, fc fault.Config, tweak ...func(*Config)) (Result, []int64, error) {
	t.Helper()
	wp := compileSource(t, src)
	cfg := DefaultConfig(2, 2)
	for _, f := range tweak {
		f(&cfg)
	}
	cfg.Faults = fc
	cfg.MaxCycles = 20_000_000 // backstop: a faulty run must terminate
	cfg.Machine.Defective = fault.DefectMap(fc, cfg.Machine.NumPEs())
	pol, err := placement.New("dynamic-depth-first-snake", cfg.Machine, wp, 1234)
	if err != nil {
		t.Fatal(err)
	}
	a := NewArena()
	res, err := a.Run(wp, pol, cfg)
	return res, a.Memory(), err
}

// TestDisabledFaultsChangeNothing: a zero fault config (plus a generous
// watchdog bound) must produce a bit-identical Result to a build that never
// heard of the fault subsystem.
func TestDisabledFaultsChangeNothing(t *testing.T) {
	src := testprogs.Heavy[1].Src // sort_64
	wp := compileSource(t, src)
	cfg := DefaultConfig(2, 2)
	base, err := Run(wp, mustPol(placement.NewDynamicSnake(cfg.Machine)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := DefaultConfig(2, 2)
	cfg2.Faults = fault.Config{} // explicit zero
	cfg2.MaxCycles = 1 << 40
	guarded, err := Run(wp, mustPol(placement.NewDynamicSnake(cfg2.Machine)), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, guarded) {
		t.Fatalf("zero fault config perturbed the simulation:\n%+v\n%+v", base, guarded)
	}
}

// TestChecksumsSurviveRecoverableFaults is the differential invariant: in
// every recoverable scenario — dead PEs at configuration, dropped and
// delayed operand messages, lost store-buffer messages, a PE death mid-run,
// and all of them at once — the faulty machine must still compute the
// fault-free result and final memory image.
func TestChecksumsSurviveRecoverableFaults(t *testing.T) {
	scenarios := []struct {
		name string
		fc   fault.Config
	}{
		{"defects", fault.Config{Seed: 11, DefectRate: 0.25}},
		{"drops", fault.Config{Seed: 11, DropRate: 0.05}},
		{"delays", fault.Config{Seed: 11, DelayRate: 0.2}},
		{"memloss", fault.Config{Seed: 11, MemLossRate: 0.05}},
		{"kill", fault.Config{Seed: 11, KillPE: 0, KillCycle: 200}},
		{"combined", fault.Config{Seed: 11, DefectRate: 0.1, DropRate: 0.02,
			DelayRate: 0.02, MemLossRate: 0.02, KillPE: 1, KillCycle: 500}},
	}
	for _, c := range []int{1, 21} { // add_mul-style + memory-heavy corpus entries
		src := testprogs.Corpus[c].Src
		f, err := lang.ParseAndCheck(src)
		if err != nil {
			t.Fatal(err)
		}
		ev := lang.NewEvaluator(f, 0)
		want, err := ev.Run()
		if err != nil {
			t.Fatal(err)
		}
		wantMem := ev.Memory()
		for _, sc := range scenarios {
			t.Run(testprogs.Corpus[c].Name+"/"+sc.name, func(t *testing.T) {
				res, mem, err := faultRun(t, src, sc.fc)
				if err != nil {
					t.Fatalf("recoverable scenario failed: %v", err)
				}
				if res.Value != want {
					t.Fatalf("value %d, want %d", res.Value, want)
				}
				for i := range wantMem {
					if mem[i] != wantMem[i] {
						t.Fatalf("memory[%d] = %d, want %d", i, mem[i], wantMem[i])
					}
				}
			})
		}
	}
}

// TestFaultyRunReproducible: the same (seed, config) must reproduce a
// faulty run bit-for-bit, including every fault counter.
func TestFaultyRunReproducible(t *testing.T) {
	fc := fault.Config{Seed: 42, DefectRate: 0.2, DropRate: 0.03, DelayRate: 0.05, MemLossRate: 0.03}
	src := testprogs.Heavy[1].Src
	r1, _, err := faultRun(t, src, fc)
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := faultRun(t, src, fc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("faulty runs diverged:\n%+v\n%+v", r1, r2)
	}
	if r1.Faults.Operand.Drops == 0 || r1.Faults.DefectivePEs == 0 {
		t.Fatalf("scenario injected nothing: %+v", r1.Faults)
	}
	// A different seed must (for these rates) produce a different timing.
	fc.Seed = 43
	r3, _, err := faultRun(t, src, fc)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Value != r1.Value {
		t.Fatalf("seed change broke correctness: %d vs %d", r3.Value, r1.Value)
	}
	if r3.Cycles == r1.Cycles && r3.Faults.Operand.Drops == r1.Faults.Operand.Drops {
		t.Log("note: different fault seeds produced identical timing (unlikely but legal)")
	}
}

// TestRetryExhaustionIsStructuredError: a message that can never be
// delivered must surface as a *fault.FaultError after bounded retries —
// not a hang, not a panic. So must a hand-built Config whose PE stores hold
// nothing: the first firing would evict from an empty store.
func TestRetryExhaustionIsStructuredError(t *testing.T) {
	noTweak := func(*Config) {}
	for _, sc := range []struct {
		name  string
		src   string
		fc    fault.Config
		tweak func(*Config)
		want  fault.Kind
	}{
		{"operand-loss", testprogs.Corpus[1].Src, fault.Config{Seed: 1, DropRate: 1.0, MaxRetries: 2}, noTweak, fault.KindMessageLoss},
		// mem-loss needs a program that actually issues memory requests.
		{"mem-loss", testprogs.Corpus[21].Src, fault.Config{Seed: 1, MemLossRate: 1.0, MaxRetries: 2}, noTweak, fault.KindMessageLoss},
		{"empty-store", testprogs.Corpus[1].Src, fault.Config{}, func(c *Config) { c.PEStore = 0 }, fault.KindConfig},
		{"negative-store", testprogs.Corpus[1].Src, fault.Config{}, func(c *Config) { c.PEStore = -1 }, fault.KindConfig},
	} {
		t.Run(sc.name, func(t *testing.T) {
			_, _, err := faultRun(t, sc.src, sc.fc, sc.tweak)
			var fe *fault.FaultError
			if !errors.As(err, &fe) {
				t.Fatalf("want *fault.FaultError, got %v", err)
			}
			if fe.Kind != sc.want {
				t.Fatalf("kind %v, want %v", fe.Kind, sc.want)
			}
		})
	}
}

// TestWatchdogMaxCycles: an undersized cycle budget must abort with the
// watchdog's diagnostic dump rather than run on — and the dump must be
// deterministic: two runs of the same abort produce byte-identical
// diagnostics (no Go map iteration order leaking into any section), so
// dumps are diffable across runs and engines.
func TestWatchdogMaxCycles(t *testing.T) {
	wp := compileSource(t, testprogs.Heavy[1].Src)
	watchdogDump := func(maxCycles int64) string {
		cfg := DefaultConfig(2, 2)
		cfg.MaxCycles = maxCycles
		_, err := Run(wp, mustPol(placement.NewDynamicSnake(cfg.Machine)), cfg)
		var fe *fault.FaultError
		if !errors.As(err, &fe) {
			t.Fatalf("want *fault.FaultError, got %v", err)
		}
		if fe.Kind != fault.KindWatchdog {
			t.Fatalf("kind %v, want watchdog", fe.Kind)
		}
		return err.Error()
	}
	// A late trip leaves hundreds of partial tuples and wave-ordering
	// chains in flight — the state most likely to expose nondeterministic
	// rendering.
	for _, maxCycles := range []int64{10, 300} {
		dump := watchdogDump(maxCycles)
		for _, needle := range []string{"watchdog report", "wave-ordering state", "partial operand tuples"} {
			if !strings.Contains(dump, needle) {
				t.Errorf("diagnostic dump missing %q:\n%v", needle, dump)
			}
		}
		if again := watchdogDump(maxCycles); again != dump {
			t.Errorf("max-cycles=%d: two identical aborts produced different dumps:\n--- first ---\n%s\n--- second ---\n%s",
				maxCycles, dump, again)
		}
	}
}

// TestDeadlockDumpDeterministic drives the other diagnostic branch — the
// event queue draining without a program return — with a hand-built
// program whose entry feeds only one port of a two-input add. The abort
// must be a structured watchdog-kind fault carrying the dump, and two
// identical deadlocks must render byte-identical diagnostics.
func TestDeadlockDumpDeterministic(t *testing.T) {
	main := isa.Function{Name: "main", Params: []isa.InstrID{0}, NumWaves: 1}
	main.Add(isa.Instruction{Op: isa.OpNop}, []isa.Dest{{Instr: 1, Port: 0}}, nil, "")
	main.Add(isa.Instruction{Op: isa.OpAdd}, nil, nil, "") // port 1 never receives a token
	prog := &isa.Program{Entry: 0, Funcs: []isa.Function{main}, MemWords: 64}
	deadlockDump := func() string {
		cfg := DefaultConfig(2, 2)
		_, err := Run(prog, mustPol(placement.NewDynamicSnake(cfg.Machine)), cfg)
		var fe *fault.FaultError
		if !errors.As(err, &fe) {
			t.Fatalf("want *fault.FaultError, got %v", err)
		}
		if fe.Kind != fault.KindWatchdog {
			t.Fatalf("kind %v, want watchdog", fe.Kind)
		}
		return err.Error()
	}
	dump := deadlockDump()
	for _, needle := range []string{"deadlock", "partial operand tuples", "wave-ordering state"} {
		if !strings.Contains(dump, needle) {
			t.Errorf("deadlock dump missing %q:\n%v", needle, dump)
		}
	}
	if again := deadlockDump(); again != dump {
		t.Errorf("two identical deadlocks produced different dumps:\n--- first ---\n%s\n--- second ---\n%s", dump, again)
	}
}

// TestMidRunKillMigrates: a PE death mid-run must be recovered by
// re-placement and counted in the fault stats.
func TestMidRunKillMigrates(t *testing.T) {
	src := testprogs.Heavy[1].Src
	want, err := lang.EvalProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := faultRun(t, src, fault.Config{Seed: 1, KillPE: 0, KillCycle: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != want {
		t.Fatalf("value %d, want %d", res.Value, want)
	}
	if res.Faults.PEKills != 1 {
		t.Fatalf("PEKills = %d, want 1", res.Faults.PEKills)
	}
	if res.Faults.MigratedInstrs == 0 {
		t.Error("kill at cycle 100 migrated no instructions; PE 0 should have been busy")
	}
}

// TestKillLastUsablePE: a death that leaves no usable PE is unrecoverable
// and must return a placement-kind fault, not hang.
func TestKillLastUsablePE(t *testing.T) {
	wp := compileSource(t, testprogs.Corpus[1].Src)
	cfg := DefaultConfig(1, 1)
	n := cfg.Machine.NumPEs()
	dead := make([]bool, n)
	for i := 1; i < n; i++ {
		dead[i] = true
	}
	cfg.Machine.Defective = dead
	cfg.Faults = fault.Config{KillPE: 0, KillCycle: 1}
	cfg.MaxCycles = 1 << 30
	pol, err := placement.New("dynamic-snake", cfg.Machine, wp, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(wp, pol, cfg)
	var fe *fault.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("want *fault.FaultError, got %v", err)
	}
	if fe.Kind != fault.KindPlacement {
		t.Fatalf("kind %v, want placement", fe.Kind)
	}
}

// killPin is the slice of a Result TestKillResultPinned freezes.
type killPin struct {
	Cycles                            int64
	Fired, Tokens, Swaps, Overflows   uint64
	PEsUsed                           int
	PEKills, MigratedInstrs, MemDrops uint64
}

// TestKillResultPinned pins the timing of the mid-run PE death, which no
// golden file executes (E12 sweeps defect and loss rates only, and the
// tests above check values and counters, not cycles). Each row is the
// `kill` or `combined` scenario of TestChecksumsSurviveRecoverableFaults
// on a kernel whose per-PE working set (placement packs 64 instructions a
// PE) overflows a 16-entry instruction store, so LRU eviction, the kill's
// residency wipe and the migrants' re-placement all shape the numbers.
// The literals were recorded from the build before residency moved from a
// per-PE hash table to the dense per-instruction slice (PR 15); any change
// to them is a change of simulated behaviour.
func TestKillResultPinned(t *testing.T) {
	kill := fault.Config{Seed: 11, KillPE: 0, KillCycle: 200}
	combined := fault.Config{Seed: 11, DefectRate: 0.1, DropRate: 0.02,
		DelayRate: 0.02, MemLossRate: 0.02, KillPE: 1, KillCycle: 500}
	for _, row := range []struct {
		kernel, scenario string
		fc               fault.Config
		want             killPin
	}{
		{"adpcm", "kill", kill, killPin{2398304, 259765, 408263, 259765, 0, 4, 1, 16, 0}},
		{"adpcm", "combined", combined, killPin{2529197, 259765, 408263, 259760, 0, 4, 1, 16, 821}},
		{"lu", "kill", kill, killPin{772096, 111777, 154448, 84154, 7455, 6, 1, 15, 0}},
		{"lu", "combined", combined, killPin{785249, 111777, 154448, 89563, 8269, 5, 1, 0, 543}},
	} {
		t.Run(row.kernel+"/"+row.scenario, func(t *testing.T) {
			res, _, err := faultRun(t, workloads.ByName(row.kernel).Src, row.fc,
				func(cfg *Config) { cfg.PEStore = 16 })
			if err != nil {
				t.Fatal(err)
			}
			got := killPin{res.Cycles, res.Fired, res.Tokens, res.Swaps, res.Overflows,
				res.PEsUsed, res.Faults.PEKills, res.Faults.MigratedInstrs, res.Faults.StoreBuffer.Drops}
			if got != row.want {
				t.Errorf("pinned kill result moved:\n got %+v\nwant %+v", got, row.want)
			}
		})
	}
}
