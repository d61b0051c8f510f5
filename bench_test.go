package wavescalar

// This file holds the benchmark harness entry points: BenchmarkExperiment
// has one sub-benchmark per reconstructed table/figure of the MICRO 2003
// evaluation and its follow-ups (experiments E1–E15 and M1; see DESIGN.md for
// the index and EXPERIMENTS.md for the recorded results). Each regenerates
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

// runExperiment regenerates one experiment's table per benchmark iteration
// on workers goroutines (0 = one per CPU; the table is identical either way
// — see harness.MachineOptions.Workers).
func runExperiment(b *testing.B, e harness.Experiment, workers int) {
	b.Helper()
	set := benchSuite(b)
	m := benchMachine(b)
	m.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(set, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExperiment has one sub-benchmark per table, named by its ID
// (`-bench 'Experiment/E4$'`); harness.Experiments says what each one
// reproduces. E14 compiles both optimizer tiers internally.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range harness.Experiments {
		b.Run(e.ID, func(b *testing.B) { runExperiment(b, e, 0) })
	}
}

// BenchmarkHarnessCellsSequential runs E1's simulation cells on one
// worker goroutine; BenchmarkHarnessCellsParallel fans the same cells
// across one worker per CPU, which shows the speedup of the cell pool.
func BenchmarkHarnessCellsSequential(b *testing.B) {
	runExperiment(b, *harness.ExperimentByID("E1"), 1)
}

func BenchmarkHarnessCellsParallel(b *testing.B) {
	runExperiment(b, *harness.ExperimentByID("E1"), 0)
}

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
		if _, err := prog.SimulateBaseline(); err != nil {
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
