package wavecache

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"wavescalar/internal/cfgir"
	"wavescalar/internal/fault"
	"wavescalar/internal/isa"
	"wavescalar/internal/lang"
	"wavescalar/internal/placement"
	"wavescalar/internal/testprogs"
	"wavescalar/internal/wavec"
)

// mustPol unwraps a policy constructor: the machines tests build are
// always valid, so a construction error is a test bug. It panics (rather
// than t.Fatal) so it is usable inside goroutines and benchmarks.
func mustPol(pol placement.Policy, err error) placement.Policy {
	if err != nil {
		panic(err)
	}
	return pol
}

func compileSource(t testing.TB, src string) *isa.Program {
	t.Helper()
	p, _, _, err := cfgir.FromSource(src, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	wp, err := wavec.Compile(p, wavec.Options{})
	if err != nil {
		t.Fatalf("wavec: %v", err)
	}
	return wp
}

// TestSimulatorMatchesEvaluator: the timing simulator must preserve
// functional results and memory images for the whole corpus, under every
// placement policy and memory mode.
func TestSimulatorMatchesEvaluator(t *testing.T) {
	cfg := DefaultConfig(2, 2)
	for _, c := range testprogs.Corpus {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			f, err := lang.ParseAndCheck(c.Src)
			if err != nil {
				t.Fatal(err)
			}
			ev := lang.NewEvaluator(f, 0)
			want, err := ev.Run()
			if err != nil {
				t.Fatal(err)
			}
			wp := compileSource(t, c.Src)
			pol := mustPol(placement.NewDynamicSnake(cfg.Machine))
			a := NewArena()
			res, err := a.Run(wp, pol, cfg)
			if err != nil {
				t.Fatal(err)
			}
			gotMem := a.Memory()
			if res.Value != want {
				t.Fatalf("value %d, want %d", res.Value, want)
			}
			wantMem := ev.Memory()
			for i := range wantMem {
				if gotMem[i] != wantMem[i] {
					t.Fatalf("memory[%d] = %d, want %d", i, gotMem[i], wantMem[i])
				}
			}
			if res.Cycles <= 0 || res.Fired == 0 {
				t.Fatalf("degenerate run: %+v", res)
			}
		})
	}
}

func TestAllPoliciesAgreeFunctionally(t *testing.T) {
	src := testprogs.Heavy[1].Src // sort_64
	want, err := lang.EvalProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	wp := compileSource(t, src)
	cfg := DefaultConfig(2, 2)
	for _, name := range placement.Names() {
		pol, err := placement.New(name, cfg.Machine, wp, 1234)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(wp, pol, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Value != want {
			t.Errorf("%s: value %d, want %d", name, res.Value, want)
		}
	}
}

func TestAllMemoryModesAgreeFunctionally(t *testing.T) {
	src := testprogs.Corpus[20].Src // mem_raw_order
	want, err := lang.EvalProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	wp := compileSource(t, src)
	var cycles []int64
	for _, mode := range []MemoryMode{MemOrdered, MemSerial, MemIdeal, MemSpec} {
		cfg := DefaultConfig(1, 1)
		cfg.MemMode = mode
		pol := mustPol(placement.NewDynamicSnake(cfg.Machine))
		res, err := Run(wp, pol, cfg)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Value != want {
			t.Errorf("%v: value %d, want %d", mode, res.Value, want)
		}
		cycles = append(cycles, res.Cycles)
	}
	// Serialized memory can never beat wave-ordered; ideal can never lose
	// to it on a memory-bound kernel.
	if cycles[1] < cycles[0] {
		t.Errorf("serialized (%d cycles) beat wave-ordered (%d)", cycles[1], cycles[0])
	}
	if cycles[2] > cycles[0] {
		t.Errorf("ideal (%d cycles) slower than wave-ordered (%d)", cycles[2], cycles[0])
	}
	// Speculation can only lose cycles to squash replays, never to extra
	// serialization, so it must stay well inside the serialized bound.
	if cycles[3] > cycles[1] {
		t.Errorf("spec (%d cycles) slower than serialized (%d)", cycles[3], cycles[1])
	}
}

func TestMemoryModesSeparateOnMemoryBoundLoop(t *testing.T) {
	// A long loop of dependent stores + loads: serialization must visibly
	// hurt.
	src := "global a[256];\nfunc main() { for var i = 0; i < 256; i = i + 1 { a[i] = i; } var s = 0; for var i = 0; i < 256; i = i + 1 { s = s + a[i]; } return s; }"
	wp := compileSource(t, src)
	run := func(mode MemoryMode) int64 {
		cfg := DefaultConfig(1, 1)
		cfg.MemMode = mode
		res, err := Run(wp, mustPol(placement.NewDynamicSnake(cfg.Machine)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	ordered := run(MemOrdered)
	serial := run(MemSerial)
	if serial <= ordered {
		t.Errorf("serialized memory (%d) not slower than wave-ordered (%d) on a memory-bound loop", serial, ordered)
	}
}

func TestSwapThrashingAtTinyCapacity(t *testing.T) {
	src := testprogs.Heavy[2].Src // matmul_8
	wp := compileSource(t, src)
	run := func(capacity int) (int64, uint64) {
		cfg := DefaultConfig(1, 1)
		cfg.PEStore = capacity
		cfg.Machine.Capacity = capacity
		res, err := Run(wp, mustPol(placement.NewDynamicSnake(cfg.Machine)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles, res.Swaps
	}
	bigCycles, bigSwaps := run(64)
	smallCycles, smallSwaps := run(2)
	if smallSwaps <= bigSwaps {
		t.Errorf("capacity 2 swaps (%d) not above capacity 64 swaps (%d)", smallSwaps, bigSwaps)
	}
	if smallCycles <= bigCycles {
		t.Errorf("capacity 2 (%d cycles) not slower than capacity 64 (%d)", smallCycles, bigCycles)
	}
}

func TestRandomPlacementSlower(t *testing.T) {
	// The paper: bad placement costs up to 5x. Placement quality shows up
	// on latency-dominated code — a long serial dependence chain with no
	// parallelism for dispersion to exploit — where scattering dependent
	// instructions across a 4x4 grid must lose to snake packing. (On
	// contention-dominated code like deep recursion the trade-off flips;
	// that is the packing-dispersion tension experiment E8 measures.)
	src := `func main() { var x = 12345; for var i = 0; i < 2000; i = i + 1 { x = (x * 48271) % 2147483647; } return x; }`
	wp := compileSource(t, src)
	cfg := DefaultConfig(4, 4)
	snake, err := Run(wp, mustPol(placement.NewDynamicSnake(cfg.Machine)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	random, err := Run(wp, mustPol(placement.NewRandom(cfg.Machine, 5)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if random.Cycles <= snake.Cycles {
		t.Errorf("random placement (%d cycles) not slower than dynamic-snake (%d)", random.Cycles, snake.Cycles)
	}
}

func TestStatsPopulated(t *testing.T) {
	wp := compileSource(t, testprogs.Heavy[1].Src)
	cfg := DefaultConfig(2, 2)
	res, err := Run(wp, mustPol(placement.NewDynamicSnake(cfg.Machine)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 {
		t.Error("IPC not computed")
	}
	if res.Tokens == 0 || res.Fired == 0 {
		t.Error("token/fire counters empty")
	}
	if res.Order.Issued == 0 || res.Order.Issued != res.Order.Submitted {
		t.Errorf("ordering stats: %+v", res.Order)
	}
	if res.Mem.Accesses == 0 {
		t.Error("no cache accesses recorded")
	}
	if res.Net.Messages == 0 {
		t.Error("no network messages recorded")
	}
	if res.PEsUsed == 0 {
		t.Error("no PEs used")
	}
	if res.Swaps == 0 {
		t.Error("no instruction fetches recorded (cold misses count)")
	}
}

func TestFuelExhaustion(t *testing.T) {
	wp := compileSource(t, `func main() { var i = 0; while i < 100000 { i = i + 1; } return i; }`)
	cfg := DefaultConfig(1, 1)
	cfg.Fuel = 500
	_, err := Run(wp, mustPol(placement.NewDynamicSnake(cfg.Machine)), cfg)
	if err == nil || !strings.Contains(err.Error(), "exceeded instruction budget") {
		t.Fatalf("expected fuel exhaustion error, got %v", err)
	}
	// Exhausted fuel is a watchdog abort, like MaxCycles and deadlock.
	var fe *fault.FaultError
	if !errors.As(err, &fe) || fe.Kind != fault.KindWatchdog {
		t.Fatalf("fuel exhaustion is not a watchdog fault: %#v", err)
	}
}

func TestMemoryModeString(t *testing.T) {
	if MemOrdered.String() != "wave-ordered" || MemSerial.String() != "serialized" ||
		MemIdeal.String() != "ideal" || MemSpec.String() != "spec" {
		t.Error("MemoryMode strings wrong")
	}
}

func TestTinyInputQueueCausesOverflow(t *testing.T) {
	wp := compileSource(t, testprogs.Heavy[2].Src)
	cfg := DefaultConfig(1, 1)
	cfg.InputQueue = 1
	res, err := Run(wp, mustPol(placement.NewDynamicSnake(cfg.Machine)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overflows == 0 {
		t.Error("no overflows with a 1-entry input queue")
	}
	big := DefaultConfig(1, 1)
	big.InputQueue = 1 << 20
	res2, err := Run(wp, mustPol(placement.NewDynamicSnake(big.Machine)), big)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Overflows != 0 {
		t.Errorf("overflows (%d) with an effectively infinite queue", res2.Overflows)
	}
	if res.Cycles <= res2.Cycles {
		t.Errorf("tiny queue (%d cycles) not slower than infinite queue (%d)", res.Cycles, res2.Cycles)
	}
}

// TestConcurrentRunsShareProgram exercises the concurrency contract on
// Run: many simulations of ONE *isa.Program, each with its own policy and
// config, running concurrently must neither race (run under -race) nor
// diverge from each other — every run sees the same read-only program and
// must produce a bit-identical Result.
func TestConcurrentRunsShareProgram(t *testing.T) {
	wp := compileSource(t, testprogs.Heavy[1].Src) // sort_64
	const runs = 8
	results := make([]Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := DefaultConfig(2, 2)
			results[i], errs[i] = Run(wp, mustPol(placement.NewDynamicSnake(cfg.Machine)), cfg)
		}()
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("run %d diverged:\n%+v\nwant\n%+v", i, results[i], results[0])
		}
	}
	// Mixed configurations sharing the program must also be race-free.
	var wg2 sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			cfg := DefaultConfig(1+i%2, 1+i%2)
			cfg.MemMode = MemoryMode(i % 3)
			if _, err := Run(wp, mustPol(placement.NewDynamicSnake(cfg.Machine)), cfg); err != nil {
				t.Errorf("mixed run %d: %v", i, err)
			}
		}()
	}
	wg2.Wait()
}

func BenchmarkWaveCacheSort(b *testing.B) {
	wp := compileSource(b, testprogs.Heavy[1].Src)
	cfg := DefaultConfig(2, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol := mustPol(placement.NewDynamicSnake(cfg.Machine))
		if _, err := Run(wp, pol, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestParseGrid(t *testing.T) {
	for _, c := range []struct {
		in   string
		w, h int
		ok   bool
	}{
		{"1x1", 1, 1, true},
		{"4x4", 4, 4, true},
		{"8x8", 8, 8, true}, // exactly mem.MaxL1s clusters
		{"64x1", 64, 1, true},
		{"9x9", 0, 0, false}, // 81 clusters
		{"65x1", 0, 0, false},
		{"0x0", 0, 0, false},
		{"-1x4", 0, 0, false},
		{"4x", 0, 0, false},
		{"x4", 0, 0, false},
		{"4x4junk", 0, 0, false},
		{" 4x4", 0, 0, false},
		{"+4x4", 0, 0, false},
		{"4X4", 0, 0, false},
		{"", 0, 0, false},
		{"4294967296x4294967296", 0, 0, false}, // product overflows to 0
	} {
		w, h, err := ParseGrid(c.in)
		if (err == nil) != c.ok || w != c.w || h != c.h {
			t.Errorf("ParseGrid(%q) = %d, %d, %v; want %d, %d, ok=%v", c.in, w, h, err, c.w, c.h, c.ok)
		}
	}
}
