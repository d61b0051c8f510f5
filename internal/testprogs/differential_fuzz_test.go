// Corpus-scale differential fuzzing lives in an external test package:
// it drives the full engine table from internal/harness, which itself
// imports testprogs — an in-package fuzz target would be an import cycle.
package testprogs_test

import (
	"testing"

	"wavescalar/internal/harness"
	"wavescalar/internal/testprogs"
)

// FuzzDifferential: any (seed, family, size) triple must generate a valid
// program on which all seven engines agree. The fuzzer explores raw int64
// inputs; the target folds them into the spec domain, so every input is
// meaningful and the committed seed corpus (testdata/fuzz/FuzzDifferential)
// stays human-readable. Run with:
//
//	go test -fuzz=FuzzDifferential -fuzztime=20s ./internal/testprogs
func FuzzDifferential(f *testing.F) {
	fams := testprogs.Families()
	for i := range fams {
		f.Add(int64(i+1), int64(i), int64(1))
	}
	f.Add(int64(-7), int64(17), int64(3))

	copts := harness.DefaultCompileOptions()
	copts.Workers = 1
	m := harness.DefaultCorpusMachine()
	m.Workers = 1
	engines := harness.Engines(m)

	f.Fuzz(func(t *testing.T, seed, fam, size int64) {
		n := int64(len(fams))
		spec := testprogs.CorpusSpec{
			Family: fams[((fam%n)+n)%n],
			Seed:   seed,
			Size:   int(((size%4)+4)%4) + 1,
		}
		src, err := testprogs.GenerateSpec(spec)
		if err != nil {
			t.Fatalf("%s: generate: %v", spec.Name(), err)
		}
		// Every input is exercised at both optimizer tiers: the memory
		// tier must be checksum-invisible, so O0 and O1 binaries both
		// have to agree with the full engine table (and, transitively,
		// with each other).
		for opt := 0; opt <= 1; opt++ {
			o := copts
			o.OptLevel = opt
			c, err := harness.CompileSource(spec.Name(), src, o)
			if err != nil {
				t.Fatalf("%s: compile at -O%d: %v\n%s", spec.Name(), opt, err, src)
			}
			d := harness.RunDifferential(c, engines)
			if !d.Pass() {
				t.Fatalf("%s at -O%d: engines disagree: %v\n%s", spec.Name(), opt, d.Mismatches(), src)
			}
		}
	})
}
