package harness

import (
	"testing"

	"wavescalar/internal/testprogs"
)

func corpusOptions(n int, workers int) CorpusOptions {
	o := CorpusOptions{
		N:       n,
		Seed:    1,
		Compile: DefaultCompileOptions(),
		Machine: DefaultCorpusMachine(),
	}
	o.Machine.Workers = workers
	return o
}

// TestCorpusDifferentialAgreement is the generator-correctness
// acceptance sweep: 200 seeds per family (the full corpus round-robins
// the families) must compile and agree across all seven engines, with the
// WaveCache watchdog bounding every cell.
func TestCorpusDifferentialAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus differential sweep is slow")
	}
	nFamilies := len(testprogs.Families())
	run, err := RunCorpus(corpusOptions(200*nFamilies, 0))
	if err != nil {
		t.Fatal(err)
	}
	if run.Missing != 0 {
		t.Fatalf("%d cells missing from an unsharded, uncached run", run.Missing)
	}
	if run.Mismatched != 0 {
		for i, cell := range run.Cells {
			if cell != nil && !cell.Pass {
				src, _ := testprogs.GenerateSpec(cell.Spec)
				t.Errorf("cell %d (%s): want %d, engines %+v\n%s", i, cell.Spec.Name(), cell.Want, cell.Engines, src)
			}
		}
		t.Fatalf("%d/%d cells mismatched", run.Mismatched, run.Computed)
	}
}

// TestCorpusDifferentialAgreementO0 repeats the agreement sweep with the
// memory-optimization tier off. Together with the default sweep above
// (which compiles at DefaultCompileOptions' OptLevel 1) it pins the
// tier's soundness contract corpus-wide: both the optimized and the
// unoptimized binary of every generated program must agree with all seven
// engines, so the two binaries transitively agree with each other. A
// smaller N keeps the combined runtime near the old single sweep; the
// full-size O1 sweep plus FuzzDifferential (which runs both tiers per
// input) covers the long tail.
func TestCorpusDifferentialAgreementO0(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus differential sweep is slow")
	}
	nFamilies := len(testprogs.Families())
	o := corpusOptions(60*nFamilies, 0)
	o.Compile.OptLevel = 0
	run, err := RunCorpus(o)
	if err != nil {
		t.Fatal(err)
	}
	if run.Missing != 0 {
		t.Fatalf("%d cells missing from an unsharded, uncached run", run.Missing)
	}
	if run.Mismatched != 0 {
		for i, cell := range run.Cells {
			if cell != nil && !cell.Pass {
				src, _ := testprogs.GenerateSpec(cell.Spec)
				t.Errorf("cell %d (%s at -O0): want %d, engines %+v\n%s", i, cell.Spec.Name(), cell.Want, cell.Engines, src)
			}
		}
		t.Fatalf("%d/%d cells mismatched at -O0", run.Mismatched, run.Computed)
	}
}

// TestCorpusShardMergeByteIdentical is the resumable-sweep acceptance
// criterion in miniature: two -shard k/2 invocations into one cache dir,
// followed by a -resume invocation, must render a table byte-identical to
// a single uncached run — at different worker counts, for good measure.
func TestCorpusShardMergeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep is slow")
	}
	const n = 30
	single, err := RunCorpus(corpusOptions(n, 8))
	if err != nil {
		t.Fatal(err)
	}
	if single.Missing != 0 || single.Computed != n {
		t.Fatalf("single run: computed=%d missing=%d", single.Computed, single.Missing)
	}

	dir := t.TempDir()
	for shard := 1; shard <= 2; shard++ {
		o := corpusOptions(n, shard) // different worker counts per shard
		o.Cache = openCache(t, dir)  // one invocation, one handle
		o.Shard, o.Shards = shard, 2
		run, err := RunCorpus(o)
		if err != nil {
			t.Fatal(err)
		}
		wantComputed := n / 2
		if run.Computed != wantComputed {
			t.Fatalf("shard %d/2 computed %d cells, want %d", shard, run.Computed, wantComputed)
		}
		// The first shard's table is partial: its out-of-shard cells are
		// neither computed nor cached yet.
		if shard == 1 && run.Missing != n/2 {
			t.Fatalf("shard 1/2 missing %d cells, want %d", run.Missing, n/2)
		}
		// The second shard merges the first's cells on read.
		if shard == 2 && run.Missing != 0 {
			t.Fatalf("shard 2/2 missing %d cells after merge-on-read", run.Missing)
		}
	}

	o := corpusOptions(n, 3)
	o.Cache = openCache(t, dir)
	o.Resume = true
	resumed, err := RunCorpus(o)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Computed != 0 || resumed.Cached != n {
		t.Fatalf("resume run recomputed %d cells (cached %d), want all %d cached",
			resumed.Computed, resumed.Cached, n)
	}
	if got, want := resumed.Table.Render(), single.Table.Render(); got != want {
		t.Errorf("sharded+resumed table differs from single-run table:\n--- single ---\n%s\n--- sharded ---\n%s", want, got)
	}
}

// TestCorpusResumeRecomputesCorrupt: a -resume run must detect a corrupt
// cache entry, recompute exactly that cell, and still render the same
// table.
func TestCorpusResumeRecomputesCorrupt(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep is slow")
	}
	const n = 10
	dir := t.TempDir()
	o := corpusOptions(n, 0)
	o.Cache = openCache(t, dir)
	first, err := RunCorpus(o)
	if err != nil {
		t.Fatal(err)
	}
	if first.Computed != n {
		t.Fatalf("first run computed %d, want %d", first.Computed, n)
	}

	// Truncate one entry on disk: its record keeps its first third.
	spec := testprogs.CorpusSpecs(n, o.Seed)[3]
	rewriteRecord(t, o.Cache, corpusCellKey(spec, o), func(line []byte) []byte { return line[:len(line)/3] })

	o.Cache = openCache(t, dir)
	o.Resume = true
	resumed, err := RunCorpus(o)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Computed != 1 || resumed.Cached != n-1 {
		t.Fatalf("resume after corruption: computed=%d cached=%d, want 1/%d",
			resumed.Computed, resumed.Cached, n-1)
	}
	if resumed.CorruptEntries != 1 {
		t.Errorf("corrupt entries %d, want 1", resumed.CorruptEntries)
	}
	if resumed.Table.Render() != first.Table.Render() {
		t.Errorf("table changed after corrupt-entry recompute")
	}
	// The recomputed Put healed the slot: a further resume is all-cached.
	o.Cache = openCache(t, dir)
	healed, err := RunCorpus(o)
	if err != nil {
		t.Fatal(err)
	}
	if healed.Computed != 0 || healed.CorruptEntries != 0 {
		t.Errorf("healed cache still recomputes: computed=%d corrupt=%d",
			healed.Computed, healed.CorruptEntries)
	}
}

// TestCorpusWorkerInvariance extends the worker-invariance suite to the
// corpus sweep: tables must be byte-identical at any worker count.
func TestCorpusWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep is slow")
	}
	r1, err := RunCorpus(corpusOptions(15, 1))
	if err != nil {
		t.Fatal(err)
	}
	r8, err := RunCorpus(corpusOptions(15, 8))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Table.Render() != r8.Table.Render() {
		t.Errorf("corpus tables differ between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s",
			r1.Table.Render(), r8.Table.Render())
	}
}

func TestCorpusOptionValidation(t *testing.T) {
	if _, err := RunCorpus(corpusOptions(0, 1)); err == nil {
		t.Error("zero corpus size accepted")
	}
	for _, sh := range [][2]int{{0, 2}, {3, 2}, {-1, 2}} {
		o := corpusOptions(4, 1)
		o.Shard, o.Shards = sh[0], sh[1]
		if _, err := RunCorpus(o); err == nil {
			t.Errorf("shard %d/%d accepted", sh[0], sh[1])
		}
	}
	// Options no cell can run under fail the sweep; they do not come back
	// as a table of mismatches.
	for _, edit := range []func(*CorpusOptions){
		func(o *CorpusOptions) { o.Compile.OptLevel = 7 },
		func(o *CorpusOptions) { o.Machine.Policy = "nonsense" },
		func(o *CorpusOptions) { o.Machine.InputQueue = -1 },
	} {
		o := corpusOptions(4, 1)
		edit(&o)
		if run, err := RunCorpus(o); err == nil {
			t.Errorf("compile %+v, machine %+v: accepted, %d mismatched", o.Compile, o.Machine, run.Mismatched)
		}
	}
}
