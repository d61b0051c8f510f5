package harness

import (
	"cmp"
	"flag"
	"fmt"
	"slices"
	"strings"
	"testing"

	"wavescalar/internal/asm"
	"wavescalar/internal/isa"
	"wavescalar/internal/parallel"
	"wavescalar/internal/wavecache"
)

// engine_digests.txt is the WaveCache engine's fence. Its cells run the steer
// binary: the ten kernels on the default 4x4 machine and
// testprogs.CorpusSpecs(100, 1) on the corpus machine, in all four memory
// modes, and the -O0 kernels on 2x2, wave-ordered, under four fault
// scenarios. Per cell it pins the simulated outcome (value, cycles, fired,
// tokens), the commit-trace digest (the order and values of every load and
// store as they reached memory), the final memory-image digest, the work
// counters that no host-side optimization may move (events popped, tokens
// bypassed and matched, wave bindings made, mem.Access / noc.Send /
// waveorder.Submit calls: wavecache.Fence), the Result's swap, PE,
// network, cache and ordering counters, and a digest of the run's rendered
// trace-metrics summary. The differential engines agree on a
// return value and a memory image; this file pins what the paper is about —
// the order in which memory operations reach memory — and how much work it
// took.
//
// The four-mode cells were recorded from the engine as it stood before its
// third hot-path round (that round's parent plus the counters themselves); the
// fault rows and the Result counters carry the values of the golden snapshot
// they replace. An engine change that claims to leave simulated behaviour
// alone must leave the file byte-identical. TestGoldenWaveCache checks the
// fault rows and TestEngineDigestsPinned the others; the flag below makes
// either test rewrite the whole file.
// The counters a round is meant to move — heap pushes, slot against table
// matches, bindings retired — are in wavecache.Fence and EXPERIMENTS.md, not
// here. Regenerate only for a change meant to alter simulated behaviour:
//
//	go test ./internal/harness -run TestEngineDigestsPinned -update-engine-digests
var updateEngineDigests = flag.Bool("update-engine-digests", false, "rewrite testdata/engine_digests.txt from the current engine")

const engineDigestsPath = "testdata/engine_digests.txt"

var memModes = []wavecache.MemoryMode{wavecache.MemOrdered, wavecache.MemSerial, wavecache.MemIdeal, wavecache.MemSpec}

// fenceFaults are the fault rows' scenarios, E12's span: clean, defects,
// operand loss, and everything at once with memory loss.
var fenceFaults = []string{"", "defect=0.25", "drop=0.10", "defect=0.10,drop=0.02,delay=0.02,memloss=0.01"}

// fenceCell is one line of the fence: a program on a machine.
type fenceCell struct {
	c    *Compiled
	m    MachineOptions
	name string
}

// fenceCells lists every cell of engine_digests.txt in the file's order: the
// kernels and the corpus in the four memory modes, then the fault rows.
func fenceCells(t *testing.T) (cells []fenceCell) {
	t.Helper()
	add := func(set []*Compiled, ms []MachineOptions, label func(MachineOptions) string) {
		for _, c := range set {
			for _, m := range ms {
				cells = append(cells, fenceCell{c, m, c.Name + " " + label(m)})
			}
		}
	}
	inModes := func(m MachineOptions) []MachineOptions {
		var ms []MachineOptions
		for _, m.MemMode = range memModes {
			ms = append(ms, m)
		}
		return ms
	}
	mode := func(m MachineOptions) string { return m.MemMode.String() }
	p := fenceSets(t)
	add(p.kernels, inModes(DefaultMachineOptions()), mode)
	add(p.corpus, inModes(DefaultCorpusMachine()), mode)
	// The fault rows: the -O0 kernels on 2x2, wave-ordered, under E12's seed.
	// The snapshot they came from predates the memory tier, so they keep
	// pinning the pre-tier binaries.
	var faulty []MachineOptions
	for _, spec := range fenceFaults {
		m := quickMachine()
		m.MaxCycles, m.Faults, m.FaultSeed = 50_000_000, spec, e12Seed
		faulty = append(faulty, m)
	}
	add(p.o0, faulty, func(m MachineOptions) string {
		return fmt.Sprintf("%v -O0 2x2 faults=%s", m.MemMode, cmp.Or(m.Faults, "none"))
	})
	return cells
}

// isFaultRow tells a fault row's line of engine_digests.txt from the others.
func isFaultRow(line string) bool { return strings.Contains(line, " faults=") }

// TestEngineDigestsPinned holds the kernels and the corpus, in the four
// memory modes, to their lines of engine_digests.txt.
func TestEngineDigestsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("the engine fence simulates every kernel in four memory modes")
	}
	pinFence(t, false)
}

// TestGoldenWaveCache holds the fault rows — every kernel, clean and under
// injected faults — to their lines of engine_digests.txt.
func TestGoldenWaveCache(t *testing.T) {
	if testing.Short() {
		t.Skip("the fault rows simulate every kernel under four fault scenarios")
	}
	pinFence(t, true)
}

// pinFence simulates the fault rows or the other rows of the fence and holds
// each to its recorded line. Under -update-engine-digests it simulates every
// cell and rewrites the whole file.
func pinFence(t *testing.T, faultRows bool) {
	cells := fenceCells(t)
	if !*updateEngineDigests {
		cells = slices.DeleteFunc(cells, func(cl fenceCell) bool { return isFaultRow(cl.name) != faultRows })
	}
	got, err := parallel.Map(0, len(cells), func(i int) (string, error) {
		cl := cells[i]
		run, err := fenceRun(cl.c, cl.c.Wave, cl.m)
		if err != nil {
			return "", fmt.Errorf("%s: %w", cl.name, err)
		}
		res, f, w, ref := run.res, run.f, run.f.Work, run.ref
		// The relation the digest must satisfy, whatever the file says: the
		// steer binary commits the emulator's loads and stores, in its order.
		if f.Commit != ref.commit || f.Stores != ref.stores || f.Image != ref.image {
			return "", fmt.Errorf("%s: commit trace %x (stores %x, image %x) is not the emulator's program-order trace %x (stores %x, image %x)",
				cl.name, f.Commit, f.Stores, f.Image, ref.commit, ref.stores, ref.image)
		}
		return fmt.Sprintf("%s value=%d cycles=%d fired=%d tokens=%d commit=%016x image=%016x events=%d bypassed=%d matched=%d bound=%d access=%d send=%d submit=%d"+
			" swaps=%d overflows=%d pes=%d messages=%d hops=%d stalls=%d drops=%d retries=%d l1miss=%d transfers=%d issued=%d waves=%d maxpending=%d metrics=%016x",
			cl.name, res.Value, res.Cycles, res.Fired, res.Tokens, f.Commit, f.Image,
			w.Events, w.Bypassed, w.SlotMatched+w.TableMatched, w.Bound, w.MemAccess, w.NocSend, w.Submits,
			res.Swaps, res.Overflows, res.PEsUsed, res.Net.Messages, res.Net.MeshHops, res.Net.StallCycles,
			res.Faults.Operand.Drops, res.Faults.Operand.Retries, res.Mem.L1Misses, res.Mem.Transfers,
			res.Order.Issued, res.Order.WavesDone, res.Order.MaxPending, run.metrics), nil
	})
	if err != nil {
		t.Fatal(err)
	}

	pinnedLines(t, engineDigestsPath, *updateEngineDigests, "-update-engine-digests", got,
		func(line string) bool { return isFaultRow(line) == faultRows })
}

// o1OverflowRises are the cells where the -O1 binary does overflow the
// matching tables more than the -O0 one (EXPERIMENTS.md, E14): recorded, not
// held to the bound.
var o1OverflowRises = map[string]bool{
	"ammp wave-ordered":                   true,
	"ammp ideal":                          true,
	"gen:mixed:1090364353288875520 ideal": true,
}

// TestO1AddsNoStoragePressure: scalar replacement trades memory traffic for
// storage (Baradaran & Diniz, arXiv:0710.4702) — here a promoted scalar is a
// long-lived token — so the memory tier could raise matching-table
// overflows or instruction swaps. On the fence's programs and machines, in
// every memory mode, the -O1 binary swaps no more than the -O0 one, and
// overflows no more except in the cells o1OverflowRises names. A program the
// tier leaves alone is the same binary at both levels, so only the programs
// it rewrites are compared; their -O1 cells are the fence's own.
func TestO1AddsNoStoragePressure(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the rewritten programs at both levels in four memory modes")
	}
	type cell struct {
		o0, o1 *Compiled
		m      MachineOptions
	}
	var cells []cell
	add := func(o1, o0 []*Compiled, m MachineOptions) {
		for i, c := range o1 {
			if asm.Print(o0[i].Wave) != asm.Print(c.Wave) {
				cells = append(cells, cell{o0[i], c, m})
			}
		}
	}
	p := fenceSets(t)
	add(p.kernels, p.o0, DefaultMachineOptions())
	add(p.corpus, p.corpusO0, DefaultCorpusMachine())
	if len(cells) == 0 {
		t.Fatal("the tier rewrote none of the fence's programs")
	}

	type pressure struct{ overflows, swaps uint64 }
	got, err := parallel.Map(0, len(cells)*len(memModes), func(i int) ([2]pressure, error) {
		cl := cells[i/len(memModes)]
		m := cl.m
		m.MemMode = memModes[i%len(memModes)]
		var out [2]pressure
		for lvl, c := range []*Compiled{cl.o0, cl.o1} {
			run, err := fenceRun(c, c.Wave, m)
			if err != nil {
				return out, fmt.Errorf("%s O%d %v: %w", c.Name, lvl, m.MemMode, err)
			}
			out[lvl] = pressure{run.res.Overflows, run.res.Swaps}
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range got {
		cl := cells[i/len(memModes)]
		name := fmt.Sprintf("%s %v", cl.o1.Name, memModes[i%len(memModes)])
		rose := p[1].overflows > p[0].overflows
		switch {
		case p[1].swaps > p[0].swaps || rose && !o1OverflowRises[name]:
			t.Errorf("%s: -O1 overflows %d, swaps %d; -O0 %d, %d", name, p[1].overflows, p[1].swaps, p[0].overflows, p[0].swaps)
		case rose:
			t.Logf("%s: -O1 overflows %d against -O0's %d (recorded)", name, p[1].overflows, p[0].overflows)
		case o1OverflowRises[name]:
			t.Errorf("%s no longer overflows more at -O1: take it off o1OverflowRises and EXPERIMENTS.md", name)
		}
	}
	t.Logf("the tier rewrites %d of the fence's programs", len(cells))
}

// specSquashSrc is wavecache's TestSpecDeterministicReplay program: under
// MemSpec the constant-address loads speculate past the late store, one of
// them is caught by it at commit, and the epoch squashes and replays.
const specSquashSrc = `global a[16];
func main() {
	for var i = 0; i < 16; i = i + 1 { a[i] = i + 1; }
	var x = 12345;
	for var i = 0; i < 60; i = i + 1 { x = (x * 48271) % 2147483647; }
	var k = x % 2;
	a[k] = 7;
	var s = a[0] + a[1] + a[2] + a[3];
	return s + k;
}`

// TestCommitTraceSurvivesFaults: lost, delayed and retransmitted messages, a
// PE dying mid-run and MemSpec's squash-and-replay change when a memory
// operation reaches its store buffer and what it costs, never the order in
// which operations commit: the steer binary's commit trace stays the
// emulator's in every memory mode. (TestGoldenWaveCache holds the -O0
// binaries to the same relation under its four fault scenarios.)
func TestCommitTraceSurvivesFaults(t *testing.T) {
	squash, err := CompileSource("spec-squash", specSquashSrc, DefaultCompileOptions())
	if err != nil {
		t.Fatal(err)
	}
	set := append(quickSet(t), squash)
	if !testing.Short() {
		set = append(set, fenceSets(t).corpus[:20]...)
	}
	for _, c := range set {
		for _, faults := range []string{"", "drop=0.05,delay=0.02,memloss=0.02", "kill=1@150", "drop=0.02,memloss=0.02,kill=0@400"} {
			for _, mode := range memModes {
				m := DefaultCorpusMachine()
				m.MemMode, m.Faults = mode, faults
				if faults != "" { // a fault-free run draws nothing from the seed: it is the fence's cell
					m.FaultSeed = 7
				}
				run, err := fenceRun(c, c.Wave, m)
				if err != nil {
					t.Fatalf("%s %v faults %q: %v", c.Name, mode, faults, err)
				}
				res, f, ref := run.res, run.f, run.ref
				if f.Commit != ref.commit || f.Image != ref.image {
					t.Errorf("%s %v faults %q: commit trace %x (image %x) is not the emulator's %x (image %x)",
						c.Name, mode, faults, f.Commit, f.Image, ref.commit, ref.image)
				}
				if c == squash && mode == wavecache.MemSpec && faults == "" && res.Spec.Squashes == 0 {
					t.Errorf("the squash program squashed nothing: %+v", res.Spec)
				}
				if strings.Contains(faults, "kill") && c != squash && res.Faults.PEKills != 1 {
					t.Errorf("%s %v faults %q: %d PE kills", c.Name, mode, faults, res.Faults.PEKills)
				}
			}
		}
	}
}

// TestCommitTraceSelectAndRolled states the relation the other two binaries
// satisfy. They are lowered from different IR than the linear program —
// if-conversion executes both arms' loads, and the rolled loop body is
// optimized on its own, so the optimizer may keep a load the unrolled body
// lost — but neither transformation adds, drops or reorders a store the
// other program executes: the store subsequence of their commit trace, and
// the final image, are the emulator's.
func TestCommitTraceSelectAndRolled(t *testing.T) {
	set := quickSet(t)
	if !testing.Short() {
		set = append(set, fenceSets(t).corpus...)
	}
	differ := 0
	for _, c := range set {
		for name, prog := range map[string]*isa.Program{"select": c.WaveSel, "rolled": c.WaveNoUn} {
			run, err := fenceRun(c, prog, DefaultCorpusMachine())
			if err != nil {
				t.Fatalf("%s %s: %v", c.Name, name, err)
			}
			f, ref := run.f, run.ref
			if f.Stores != ref.stores || f.Image != ref.image {
				t.Errorf("%s %s: store trace %x (image %x) is not the emulator's %x (image %x)",
					c.Name, name, f.Stores, f.Image, ref.stores, ref.image)
			}
			if f.Commit != ref.commit {
				differ++
			}
		}
	}
	if differ == 0 {
		t.Error("every select and rolled binary commits the steer binary's loads too: the weaker relation is not exercised")
	}
}
