// Command waveexp regenerates the reconstructed MICRO 2003 evaluation:
// every experiment table (E1–E15 and M1) over the benchmark suite. Results
// go to standard output (or -out file); see EXPERIMENTS.md for the
// accompanying paper-vs-measured discussion.
//
// Usage:
//
//	waveexp [-experiments E1,E4] [-benches fft,lu] [-grid WxH] [-j 8]
//	        [-metrics] [-cpuprofile cpu.out] [-memprofile mem.out]
//	        [-out results.txt]
//	waveexp -corpus N [-corpus-seed S] [-cache-dir DIR] [-shard k/n]
//	        [-resume] [-j 8] [-out results.txt]
//
// Compilation and the experiments' simulation cells fan out across -j
// worker goroutines (default: one per CPU). The tables are byte-identical
// at any -j setting — results are collected by cell index, never by
// completion order — so only the timing lines vary between runs.
//
// -corpus N switches to experiment E13: N generated workload programs
// (seeded by -corpus-seed, round-robin across the testprogs corpus
// families) each differentially verified across all seven engines and
// aggregated into a per-family pass-rate and AIPC table. With -cache-dir
// the sweep is resumable (-resume skips cells whose cached result
// validates) and shardable (-shard k/n computes every n-th cell starting
// at k; separate shard invocations sharing a cache dir merge on read into
// one byte-identical table). -out is written atomically (temp file +
// rename), so an interrupted sweep never leaves a truncated results file.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"wavescalar/internal/cli"
	"wavescalar/internal/harness"
	"wavescalar/internal/trace"
	"wavescalar/internal/wavecache"
	"wavescalar/internal/workloads"
)

func main() {
	exps := flag.String("experiments", "", "comma-separated experiment IDs (default: all)")
	benches := flag.String("benches", "", "comma-separated workloads (default: all; available: "+strings.Join(workloads.Names(), ",")+")")
	grid, memName := cli.MachineFlags() // -mem: for the cells that do not sweep modes themselves
	outPath := flag.String("out", "", "write results to this file instead of stdout (atomic: temp file + rename)")
	unroll, optLevel := cli.CompileFlags()
	jobs := flag.Int("j", runtime.NumCPU(), "worker goroutines for compilation and simulation cells (1 = sequential)")
	metrics := flag.Bool("metrics", false,
		"aggregate WaveCache trace metrics across each experiment's cells and print a summary table after it")
	profiles := cli.ProfileFlags()
	corpusN := flag.Int("corpus", 0, "run experiment E13 over N generated corpus programs instead of the experiment suite")
	corpusSeed := flag.Int64("corpus-seed", 1, "base seed for the generated corpus (reproduces the corpus bit-for-bit)")
	cacheDir := flag.String("cache-dir", "", "content-addressed cell cache directory for resumable/shardable corpus sweeps")
	shard := flag.String("shard", "", "compute only shard k of n corpus cells, as k/n (e.g. 1/4); other cells merge from -cache-dir")
	resume := flag.Bool("resume", false, "skip corpus cells whose cached result validates (requires -cache-dir)")
	cachePrune := flag.String("cache-prune", "",
		"prune the -cache-dir cell cache first: age=DUR,size=BYTES (e.g. age=24h,size=256MB); with no -corpus, prune only and exit")
	flag.Parse()
	if *jobs < 1 {
		fatal(fmt.Errorf("-j must be >= 1, got %d", *jobs))
	}
	stop, err := profiles()
	if err != nil {
		fatal(err)
	}
	stopProfiles = stop
	defer stop()

	out, commit, err := openOut(*outPath)
	if err != nil {
		fatal(err)
	}

	// One handle serves the prune and the sweep. Nothing closes it on a
	// fatal exit: a Put is safe against the process ending once it returns.
	var cache *harness.CellCache
	if *cacheDir != "" {
		if cache, err = harness.NewCellCache(*cacheDir); err != nil {
			fatal(err)
		}
	}
	if *cachePrune != "" {
		if cache == nil {
			fatal(fmt.Errorf("-cache-prune needs -cache-dir"))
		}
		age, size, err := harness.ParsePruneSpec(*cachePrune)
		if err != nil {
			fatal(err)
		}
		st, err := cache.Prune(age, size)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "cache-prune %s: %s\n", *cacheDir, st)
		if *corpusN == 0 {
			// Prune-only mode: bound a long-lived cache dir and exit.
			if err := commit(); err != nil {
				fatal(err)
			}
			return
		}
	}

	if *corpusN > 0 {
		runCorpus(out, *corpusN, *corpusSeed, cache, *shard, *resume, *jobs, *optLevel)
		if cache != nil {
			if err := cache.Close(); err != nil {
				fatal(err)
			}
		}
		if err := commit(); err != nil {
			fatal(err)
		}
		return
	}
	if *shard != "" || *resume || cache != nil {
		fatal(fmt.Errorf("-shard/-resume/-cache-dir apply only to -corpus sweeps"))
	}

	// Every ID is resolved before anything is compiled: a misspelt one must
	// not cost a suite compile and the experiments named before it.
	run, err := pickExperiments(*exps)
	if err != nil {
		fatal(err)
	}

	var names []string
	if *benches != "" {
		names = strings.Split(*benches, ",")
	}
	copts := harness.DefaultCompileOptions()
	copts.Unroll = *unroll
	copts.OptLevel = *optLevel
	copts.Workers = *jobs
	start := time.Now()
	fmt.Fprintf(out, "compiling %d workloads...\n", len(pick(names)))
	set, err := harness.Suite(names, copts)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(out, "compiled in %v\n", time.Since(start).Round(time.Millisecond))
	if *metrics && copts.OptLevel >= 1 {
		fmt.Fprintln(out, harness.CompileSummary(set).Render())
	}

	m := harness.DefaultMachineOptions()
	m.Workers = *jobs
	if m.MemMode, err = wavecache.ParseMemoryMode(*memName); err != nil {
		fatal(err)
	}
	if *metrics {
		m.Metrics = trace.NewAggregate()
	}
	if m.GridW, m.GridH, err = wavecache.ParseGrid(*grid); err != nil {
		fatal(fmt.Errorf("-grid: %v", err))
	}

	if err := harness.RunAll(run, set, m, out); err != nil {
		fatal(err)
	}
	fmt.Fprintf(out, "\ntotal time: %v\n", time.Since(start).Round(time.Millisecond))
	if err := commit(); err != nil {
		fatal(err)
	}
}

// runCorpus executes the E13 corpus sweep. Only deterministic content —
// the section header and the table — goes to out, so an -out file from a
// sharded, resumed, or cached run is byte-identical to a single
// invocation's; run statistics and timing go to stderr.
func runCorpus(out io.Writer, n int, seed int64, cache *harness.CellCache, shard string, resume bool, jobs, optLevel int) {
	o := harness.CorpusOptions{
		N:       n,
		Seed:    seed,
		Cache:   cache,
		Resume:  resume,
		Compile: harness.DefaultCompileOptions(),
		Machine: harness.DefaultCorpusMachine(),
	}
	o.Compile.OptLevel = optLevel
	o.Compile.Workers = jobs
	o.Machine.Workers = jobs
	if shard != "" {
		var err error
		if o.Shard, o.Shards, err = parseShard(shard); err != nil {
			fatal(err)
		}
	}
	if (resume || shard != "") && cache == nil {
		fatal(fmt.Errorf("-resume and -shard need -cache-dir to share cells across invocations"))
	}
	start := time.Now()
	run, err := harness.RunCorpus(o)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(out, "\n## E13 — generated-corpus differential sweep\n\n")
	fmt.Fprintln(out, run.Table.Render())
	fmt.Fprintf(os.Stderr, "corpus: %d cells (%d computed, %d cached, %d missing", n, run.Computed, run.Cached, run.Missing)
	if run.CorruptEntries > 0 {
		fmt.Fprintf(os.Stderr, ", %d corrupt entries recomputed", run.CorruptEntries)
	}
	fmt.Fprintf(os.Stderr, ") in %v\n", time.Since(start).Round(time.Millisecond))
	if run.Mismatched > 0 {
		fatal(fmt.Errorf("%d corpus cells had cross-engine mismatches", run.Mismatched))
	}
}

// parseShard reads a -shard value: exactly k/n in decimal, 1 <= k <= n.
// Anything around or inside the two numbers is refused, so a typo never
// runs some other shard.
func parseShard(s string) (k, n int, err error) {
	if _, err := fmt.Sscanf(s, "%d/%d", &k, &n); err != nil || fmt.Sprintf("%d/%d", k, n) != s || n < 1 || k < 1 || k > n {
		return 0, 0, fmt.Errorf("bad -shard %q (want k/n with 1 <= k <= n)", s)
	}
	return k, n, nil
}

// openOut resolves the -out destination. Writes stream to stdout and —
// when path is non-empty — to a temp file beside it; commit atomically
// renames the temp file into place, so an interrupted or failed sweep
// never leaves a truncated results file where a complete one belongs.
func openOut(path string) (io.Writer, func() error, error) {
	if path == "" {
		return os.Stdout, func() error { return nil }, nil
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, nil, err
	}
	cleanupOut = func() { tmp.Close(); os.Remove(tmp.Name()) }
	commit := func() error {
		cleanupOut = nil
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return err
		}
		if err := tmp.Close(); err != nil {
			os.Remove(tmp.Name())
			return err
		}
		if err := os.Rename(tmp.Name(), path); err != nil {
			os.Remove(tmp.Name())
			return err
		}
		return nil
	}
	return io.MultiWriter(os.Stdout, tmp), commit, nil
}

// pickExperiments resolves -experiments, a comma-separated list of IDs
// (spaces around one are ignored), against harness.Experiments; the empty
// spec is all of them.
func pickExperiments(spec string) ([]harness.Experiment, error) {
	if spec == "" {
		return harness.Experiments, nil
	}
	var run []harness.Experiment
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(id)
		e := harness.ExperimentByID(id)
		if e == nil {
			var known []string
			for _, k := range harness.Experiments {
				known = append(known, k.ID)
			}
			return nil, fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(known, ", "))
		}
		run = append(run, *e)
	}
	return run, nil
}

func pick(names []string) []string {
	if len(names) == 0 {
		return workloads.Names()
	}
	return names
}

// stopProfiles flushes any active profiles; fatal calls it so -cpuprofile
// output survives error exits (os.Exit skips defers). cleanupOut removes
// a pending -out temp file on the same path, so failures leave neither a
// truncated result nor a stray temp file.
var (
	stopProfiles func()
	cleanupOut   func()
)

// fatal reports err and exits: 3 with a structured diagnostic when an
// experiment cell aborted on a FaultError (e.g. a watchdog-tripped corpus
// cell), 1 otherwise.
func fatal(err error) { cli.Fatal("waveexp", err, stopProfiles, cleanupOut) }
