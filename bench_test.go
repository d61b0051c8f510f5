package wavescalar

// This file holds the benchmark harness entry points: one testing.B
// benchmark per reconstructed table/figure of the MICRO 2003 evaluation
// and its follow-ups (experiments E1–E15 and M1; see DESIGN.md for the index
// and EXPERIMENTS.md for the recorded results). Each benchmark regenerates
// its table on a reduced configuration (three kernels, 2x2 cluster grid) so
// `go test -bench=.` terminates in minutes; the full-suite tables are
// produced by `go run ./cmd/waveexp`. The set includes ammp because it is
// the kernel where the compiler memory-optimization tier fires (E14 is the
// O0/O1 table).

import (
	"sync"
	"testing"

	"wavescalar/internal/harness"
)

var (
	benchOnce sync.Once
	benchSet  []*harness.Compiled
	benchErr  error
)

// benchSuite compiles the reduced benchmark set once for all benchmarks.
func benchSuite(b *testing.B) []*harness.Compiled {
	b.Helper()
	benchOnce.Do(func() {
		benchSet, benchErr = harness.Suite([]string{"lu", "fft", "ammp"}, harness.DefaultCompileOptions())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSet
}

func benchMachine(b *testing.B) harness.MachineOptions {
	b.Helper()
	m := harness.DefaultMachineOptions()
	m.GridW, m.GridH = 2, 2
	if err := m.Validate(); err != nil {
		b.Fatal(err)
	}
	return m
}

// runExperiment executes one experiment table per benchmark iteration and
// reports the headline cell as a custom metric where meaningful.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	set := benchSuite(b)
	e := harness.ExperimentByID(id)
	if e == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	m := benchMachine(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(set, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1_SpeedupVsSuperscalar regenerates the headline comparison:
// WaveCache vs. out-of-order superscalar vs. ideal dataflow.
func BenchmarkE1_SpeedupVsSuperscalar(b *testing.B) { runExperiment(b, "E1") }

// BenchmarkE1b_MemoryPressure regenerates the memory-regime sweep — the
// most memory-bound table.
func BenchmarkE1b_MemoryPressure(b *testing.B) { runExperiment(b, "E1b") }

// BenchmarkE2_PECapacity regenerates the PE instruction-store capacity
// sweep (swap thrashing at small stores).
func BenchmarkE2_PECapacity(b *testing.B) { runExperiment(b, "E2") }

// BenchmarkE3_GridSize regenerates the cluster-grid scaling sweep.
func BenchmarkE3_GridSize(b *testing.B) { runExperiment(b, "E3") }

// BenchmarkE4_MemoryOrdering regenerates the wave-ordered vs. serialized
// vs. oracle memory comparison — the paper's central claim.
func BenchmarkE4_MemoryOrdering(b *testing.B) { runExperiment(b, "E4") }

// BenchmarkE5_OperandLatency regenerates the operand-network latency
// sensitivity sweep.
func BenchmarkE5_OperandLatency(b *testing.B) { runExperiment(b, "E5") }

// BenchmarkE6_InputQueue regenerates the PE input-queue capacity sweep.
func BenchmarkE6_InputQueue(b *testing.B) { runExperiment(b, "E6") }

// BenchmarkE7_CacheSize regenerates the L1 size / coherence traffic sweep.
func BenchmarkE7_CacheSize(b *testing.B) { runExperiment(b, "E7") }

// BenchmarkE8_Placement regenerates the placement-algorithm comparison.
func BenchmarkE8_Placement(b *testing.B) { runExperiment(b, "E8") }

// BenchmarkE9_SteerVsSelect regenerates the steer (φ⁻¹) vs. select (φ)
// control ablation.
func BenchmarkE9_SteerVsSelect(b *testing.B) { runExperiment(b, "E9") }

// BenchmarkE10_SwapCost regenerates the instruction swap-penalty sweep.
func BenchmarkE10_SwapCost(b *testing.B) { runExperiment(b, "E10") }

// BenchmarkE11_Unrolling regenerates the loop-unrolling ablation.
func BenchmarkE11_Unrolling(b *testing.B) { runExperiment(b, "E11") }

// BenchmarkE12_FaultInjection regenerates the fault-injection sweep
// (defect maps, message loss, recovery costs).
func BenchmarkE12_FaultInjection(b *testing.B) { runExperiment(b, "E12") }

// BenchmarkE14_OptFeedback regenerates the optimizer-tier x placement
// feedback matrix; it compiles both tiers internally.
func BenchmarkE14_OptFeedback(b *testing.B) { runExperiment(b, "E14") }

// BenchmarkE15_SpecScope regenerates the speculation-scope sweep. Like
// E4 it sets its memory modes per cell.
func BenchmarkE15_SpecScope(b *testing.B) { runExperiment(b, "E15") }

// benchExperimentWorkers reports the harness wall-clock for one
// experiment at a fixed worker count; comparing the Sequential and
// Parallel variants below shows the speedup of the cell pool (identical
// tables either way — see harness.MachineOptions.Workers).
func benchExperimentWorkers(b *testing.B, id string, workers int) {
	b.Helper()
	set := benchSuite(b)
	e := harness.ExperimentByID(id)
	if e == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	m := benchMachine(b)
	m.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(set, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHarnessCellsSequential runs E1's simulation cells on one
// worker goroutine; BenchmarkHarnessCellsParallel fans the same cells
// across one worker per CPU.
func BenchmarkHarnessCellsSequential(b *testing.B) { benchExperimentWorkers(b, "E1", 1) }
func BenchmarkHarnessCellsParallel(b *testing.B)   { benchExperimentWorkers(b, "E1", 0) }

// BenchmarkSuiteCompileSequential / Parallel measure whole-suite
// compilation at one worker vs one per CPU.
func benchSuiteCompile(b *testing.B, workers int) {
	b.Helper()
	opts := harness.DefaultCompileOptions()
	opts.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := harness.Suite([]string{"lu", "fft", "adpcm"}, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSuiteCompileSequential(b *testing.B) { benchSuiteCompile(b, 1) }
func BenchmarkSuiteCompileParallel(b *testing.B)   { benchSuiteCompile(b, 0) }

// BenchmarkCompile measures the full compilation pipeline (frontend, IR,
// optimizer, both backends) on one kernel.
func BenchmarkCompile(b *testing.B) {
	src := benchSuiteSource
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(src, DefaultCompileConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWaveCacheSimulation measures raw simulator throughput
// (simulated instructions per wall second are visible via the custom
// metric).
func BenchmarkWaveCacheSimulation(b *testing.B) {
	prog, err := Compile(benchSuiteSource, DefaultCompileConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var fired uint64
	for i := 0; i < b.N; i++ {
		res, err := prog.Simulate(SimConfig{GridW: 2, GridH: 2})
		if err != nil {
			b.Fatal(err)
		}
		fired = res.Fired
	}
	b.ReportMetric(float64(fired), "sim-instrs/op")
}

// BenchmarkBaselineSimulation measures the superscalar model's throughput.
func BenchmarkBaselineSimulation(b *testing.B) {
	prog, err := Compile(benchSuiteSource, DefaultCompileConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.SimulateBaseline(DefaultBaselineConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

const benchSuiteSource = `
global a[256];
func main() {
	var x = 7;
	for var i = 0; i < 256; i = i + 1 {
		x = (x * 75 + 74) % 65537;
		a[i] = x % 1000;
	}
	var s = 0;
	for var i = 0; i < 256; i = i + 1 {
		s = (s * 31 + a[(i * 7) % 256]) % 1000000007;
	}
	return s;
}
`
