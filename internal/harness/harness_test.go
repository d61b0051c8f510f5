package harness

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"wavescalar/internal/fault"
	"wavescalar/internal/placement"
	"wavescalar/internal/wavecache"
	"wavescalar/internal/workloads"
)

// quickMachine keeps experiment runtime small for tests.
func quickMachine() MachineOptions {
	m := DefaultMachineOptions()
	m.GridW, m.GridH = 2, 2
	return m
}

func TestCompileWorkloadChecksums(t *testing.T) {
	for _, name := range []string{"lu", "adpcm"} {
		w := workloads.ByName(name)
		c, err := CompileSource(w.Name, w.Src, DefaultCompileOptions())
		if err != nil {
			t.Fatal(err)
		}
		if c.Checksum == 0 || c.UsefulInstrs == 0 {
			t.Errorf("%s: checksum=%d useful=%d", name, c.Checksum, c.UsefulInstrs)
		}
		if c.Wave == nil || c.WaveSel == nil || c.WaveNoUn == nil || c.Linear == nil {
			t.Errorf("%s: missing compiled artifact", name)
		}
		// Unrolling should have enlarged the program.
		if c.Wave.NumInstrs() <= c.WaveNoUn.NumInstrs() {
			t.Errorf("%s: unrolled %d instrs <= rolled %d", name, c.Wave.NumInstrs(), c.WaveNoUn.NumInstrs())
		}
	}
}

func TestSuiteUnknownWorkload(t *testing.T) {
	if _, err := Suite([]string{"nope"}, DefaultCompileOptions()); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestExperimentByID(t *testing.T) {
	if ExperimentByID("E1") == nil || ExperimentByID("E99") != nil {
		t.Error("ExperimentByID broken")
	}
	seen := map[string]bool{}
	for _, e := range Experiments {
		if e.ID == "" || e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Errorf("experiment %q missing metadata", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment %q", e.ID)
		}
		seen[e.ID] = true
	}
	if len(Experiments) < 11 {
		t.Errorf("only %d experiments registered", len(Experiments))
	}
}

// quickSweep holds RunAll's output for every experiment on quickSet and
// quickMachine, run once per test binary: TestRunAllWritesEverySection and
// TestEveryExperimentRuns read the one sweep.
var quickSweep struct {
	once     sync.Once
	sections []string
	err      error
}

// quickSections returns the sweep's sections, each without its "## ".
func quickSections(t *testing.T) []string {
	t.Helper()
	quickSweep.once.Do(func() {
		var sb strings.Builder
		quickSweep.err = RunAll(Experiments, quickSet(t), quickMachine(), &sb)
		quickSweep.sections = strings.Split(sb.String(), "\n## ")[1:]
	})
	if quickSweep.err != nil {
		t.Fatal(quickSweep.err)
	}
	return quickSweep.sections
}

// TestRunAllWritesEverySection: RunAll writes one section per experiment, in
// Experiments' order.
func TestRunAllWritesEverySection(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep is slow")
	}
	sections := quickSections(t)
	if len(sections) != len(Experiments) {
		t.Fatalf("%d sections for %d experiments", len(sections), len(Experiments))
	}
	for i, e := range Experiments {
		if !strings.HasPrefix(sections[i], e.ID+" — ") {
			t.Errorf("section %d is not %s:\n%s", i, e.ID, sections[i])
		}
	}
}

// TestEveryExperimentRuns: the experiments run in their pinned order, and
// each one's section of the sweep has a row for every bench.
func TestEveryExperimentRuns(t *testing.T) {
	// The order is observable: RunAll prints in it and the benchmark's
	// exp-suite indexes the slice by a seeded permutation.
	var ids []string
	for _, e := range Experiments {
		ids = append(ids, e.ID)
	}
	if got, want := strings.Join(ids, " "), "E1 E1b E2 E3 E4 E5 E6 E7 E8 E9 E10 E11 E12 M1 E14 E15"; got != want {
		t.Errorf("experiment order is %s, want %s", got, want)
	}
	if testing.Short() {
		t.Skip("experiment sweep is slow")
	}
	set := quickSet(t)
	sections := quickSections(t)
	for _, e := range Experiments {
		t.Run(e.ID, func(t *testing.T) {
			i := slices.IndexFunc(sections, func(sec string) bool { return strings.HasPrefix(sec, e.ID+" — ") })
			if i < 0 {
				t.Fatalf("no section for %s", e.ID)
			}
			for _, c := range set {
				if !strings.Contains(sections[i], "\n"+c.Name+" ") {
					t.Errorf("table has no %s row:\n%s", c.Name, sections[i])
				}
			}
		})
	}
}

func TestAIPC(t *testing.T) {
	if AIPC(100, 50) != 2.0 || AIPC(100, 0) != 0 {
		t.Error("AIPC arithmetic wrong")
	}
}

func TestMachineOptionsPolicy(t *testing.T) {
	set := quickSet(t)
	m := DefaultMachineOptions()
	pol, err := m.NewPolicy(set[0].Wave)
	if err != nil {
		t.Fatal(err)
	}
	if pol.Name() != m.Policy {
		t.Errorf("policy %q != %q", pol.Name(), m.Policy)
	}
	bad := m
	bad.Policy = "no-such-policy"
	if _, err := bad.NewPolicy(set[0].Wave); err == nil {
		t.Error("unknown policy name should be an error, not a panic")
	}

	// Validate is every door's strictness: each of these used to be taken
	// by at least one of them.
	for _, bad := range []MachineOptions{
		{GridW: -1}, {GridW: 9, GridH: 9}, {GridH: 65},
		{Density: -1}, {PEStore: -1}, {InputQueue: -1}, {Density: maxCount + 1},
		{MaxCycles: -5},
		{L1Words: -64}, {L1Words: 17}, {L1Words: 1 << 40},
		{MemMode: 9}, {MemMode: -1},
		{Faults: "defect=x"}, {Faults: "drop=2"}, {Faults: "kill=512@10", GridW: 2, GridH: 2},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%+v validates", bad)
		}
		if _, _, err := bad.Build(set[0].Wave); err == nil {
			t.Errorf("%+v builds", bad)
		}
	}
	for _, bad := range []CompileOptions{{Unroll: -1}, {OptLevel: -1}, {OptLevel: 2}, {Binaries: []string{"phi"}}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%+v validates", bad)
		}
		if _, err := CompileSource("bad", set[0].Src, bad); err == nil {
			t.Errorf("%+v compiles", bad)
		}
	}
}

// TestMachineOptionsNeverPanic: whatever a door is handed — negative, zero,
// huge — Build either refuses it or returns a machine that runs a program
// to the right answer. Seeded, so a failure names its case.
func TestMachineOptionsNeverPanic(t *testing.T) {
	c, err := CompileSource("demo", `
global a[16];
func main() {
	var s = 0;
	for var i = 0; i < 24; i = i + 1 {
		a[i & 15] = a[(i + 5) & 15] + i;
		s = (s + a[i & 15]) & 0xFFFF;
	}
	return s;
}`, DefaultCompileOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(18))
	// Each field is mostly a value some door could plausibly be given and
	// now and then a wild one, so that Build saying yes is exercised as
	// much as Build saying no.
	wild := []int64{-1 << 62, -7, -1, 1<<30 + 1, 1 << 40, 1<<63 - 1}
	num := func(plausible ...int64) int64 {
		if rng.Intn(10) == 0 {
			return wild[rng.Intn(len(wild))]
		}
		return plausible[rng.Intn(len(plausible))]
	}
	str := func(odd []string, plausible ...string) string {
		if rng.Intn(10) == 0 {
			return odd[rng.Intn(len(odd))]
		}
		return plausible[rng.Intn(len(plausible))]
	}
	badSpecs := []string{"kill=100000@5", "kill=-1@5", "defect=1", "defect=-0.5", "retries=-1", "junk", "kill=1"}
	accepted, finished := 0, 0
	for i := 0; i < 400; i++ {
		m := MachineOptions{
			GridW: int(num(0, 1, 2, 3)), GridH: int(num(0, 1, 2, 3)),
			Density:    int(num(0, 1, 2, 16, 64, 1<<30)),
			PEStore:    int(num(0, 1, 8, 64, 1<<20)),
			InputQueue: int(num(0, 1, 4, 64, 1<<30)),
			Policy:     str([]string{"nonsense"}, append(placement.Names(), "")...),
			MemMode:    wavecache.MemoryMode(num(0, 1, 2, 3)),
			L1Words:    num(0, 16, 64, 4096, 17),
			MaxCycles:  num(0, 50, 1<<40),
			Faults: str(badSpecs, "", "", "defect=0.2", "drop=0.01,delay=0.05", "memloss=0.02,retries=3",
				"kill=3@40", "timeout=4611686018427387904,drop=0.01"),
			FaultSeed: rng.Uint64(),
		}
		cfg, pol, err := m.Build(c.Wave)
		if verr := m.Validate(); err == nil && verr != nil {
			t.Fatalf("case %d %+v: built, though Validate says %v", i, m, verr)
		}
		if err != nil {
			continue // by Validate, or by the policy's constructor
		}
		accepted++
		// A bound the options did not ask for, so that no accepted machine
		// can run away; one they did ask for may trip, as may their fuel or
		// an unrecoverable fault, but only as a structured abort.
		if cfg.MaxCycles == 0 {
			cfg.MaxCycles = 5_000_000
		}
		_, err = RunWave(c, c.Wave, pol, cfg)
		var fe *fault.FaultError
		switch {
		case err == nil:
			finished++ // RunWave has checked the checksum
		case !errors.As(err, &fe):
			t.Errorf("case %d %+v: %v", i, m, err)
		}
	}
	if accepted < 50 || finished < 25 {
		t.Errorf("of 400 random machines %d were accepted and %d ran to the end; the generator no longer exercises Build's yes", accepted, finished)
	}
}

// TestRunOoONamesItsProgram: a superscalar run that fails says which program
// it ran, as RunWave's errors do.
func TestRunOoONamesItsProgram(t *testing.T) {
	c := quickSet(t)[0]
	cfg := DefaultOoOConfig()
	cfg.Mem.L1.SizeWords = 3
	if _, err := RunOoO(c, cfg); err == nil || !strings.HasPrefix(err.Error(), c.Name+": ooo: ") {
		t.Errorf("RunOoO with a 3-word L1: %v, want an error that starts %q", err, c.Name+": ooo: ")
	}
}
