package harness

import (
	"crypto/sha256"
	"errors"
	"fmt"
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

// quickTableDigests pins the SHA-256 of each experiment's section of the
// quick sweep — header, claim and table, the "(ID in …)" timing line left
// out. A change to how the experiments declare or configure their cells
// must leave every digest where it is; one that means to move a table
// updates its digest and says why.
var quickTableDigests = map[string]string{
	"E1":  "3c3d808d792ea2654371039013ac7f11147a2b644d83cb5d0cf2aaaf6eee40d8",
	"E1b": "7b63ebe8aae90d36b94bd7059cc5a37126a693a771cb212c43293d6ebcb8738e",
	"E2":  "3cdbb13752e83c9dce721dbf67e28987be4626bb1288cf22fe890eb5323416d9",
	"E3":  "57e056b08a0a2cc5305ef9d697478ce5a40578a69c192fb22f2d07612afe89b3",
	"E4":  "23f5c1315e70ee08e2b3231a74fc4b073bfc9e2fa9952bd7c9a24d8d87f17297",
	"E5":  "5e741e004fa1d599b932cb2b94b03a2a0c661bd29496e9510ea3c501b37d9585",
	"E6":  "fae8da07781402ff0af65e52e4bf71f50db15eff842ce23414249010ec0cf1fa",
	"E7":  "f9724e5413289ca57bf365249e387498074d6342f44ecdcff4060bda8caf39c0",
	"E8":  "23f1b373a024d4fbbd667f6710fba72189820e94f68bd8c56a911cc093d61d94",
	"E9":  "b2917d9ea58c6ae080c87651c2bd36a211cbf47f6569e63b9386ff8e4153cb80",
	"E10": "92e6371bcff7ee493d45daca162d220df07940ca3552d63f5d3d562273bbf668",
	"E11": "c0f5b1819a8b26834431ba42754eaa404c9b9fbd274b041a6d70e380cacef4d7",
	"E12": "3735af168943cc65135daace3501a3c5b2e9a9226387d1c0056a9fb0d56b65e7",
	"M1":  "d34491b2168ff820a6155edefba8fe146831b83f6771ac9e23811a6bf0171d27",
	"E14": "99c437273c6a98f9c76fa6332e36ff4a7e3e2f014652fef6b6ec5b90c9b2f208",
	"E15": "06dd52876b8aefc76125a0bc50a4fa7b29d683cd6cc0ecbd108b8ab3bb35f8d5",
}

// TestEveryExperimentRuns: the experiments run in their pinned order, each
// one's section of the sweep has a row for every bench, and its digest is
// quickTableDigests'.
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
			body := sections[i][:strings.LastIndex(sections[i], "("+e.ID+" in ")]
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(body))); got != quickTableDigests[e.ID] {
				t.Errorf("section digest %s, pinned %s:\n%s", got, quickTableDigests[e.ID], body)
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
		{Regime: "published"}, {Regime: "dram-heavy"}, {Regime: "ideal", L1Words: 17},
		{NetScale: zeroed - 1}, {NetScale: maxCount + 1}, {SwapPenalty: -7}, {SwapPenalty: maxCount + 1},
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
			Density:     int(num(0, 1, 2, 16, 64, 1<<30)),
			PEStore:     int(num(0, 1, 8, 64, 1<<20)),
			InputQueue:  int(num(0, 1, 4, 64, 1<<30)),
			Policy:      str([]string{"nonsense"}, append(placement.Names(), "")...),
			MemMode:     wavecache.MemoryMode(num(0, 1, 2, 3)),
			L1Words:     num(0, 16, 64, 256, 4096, 17),
			Regime:      str([]string{"nonsense", "DRAM-heavy"}, "", "", "dram-heavy", "ideal"),
			NetScale:    num(0, 0, zeroed, 1, 2, 4),
			SwapPenalty: num(0, 0, zeroed, 8, 32, 128),
			MaxCycles:   num(0, 50, 1<<40),
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
