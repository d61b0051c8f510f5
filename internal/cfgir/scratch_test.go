package cfgir

import (
	"reflect"
	"slices"
	"testing"
)

// TestLiveSetsReuseMatchesLiveness: one LiveSets carried through every
// function of the kernels and a corpus, larger and smaller in turn, computes
// what a fresh Func.Liveness does; and a Liveness result shares nothing with
// the storage the passes reuse — its sets read the same after every later
// Compute and optimizer run.
func TestLiveSetsReuseMatchesLiveness(t *testing.T) {
	type kept struct {
		in, out         []RegSet
		wantIn, wantOut []RegSet
	}
	deep := func(sets []RegSet) []RegSet {
		c := make([]RegSet, len(sets))
		for i, s := range sets {
			c[i] = slices.Clone(s)
		}
		return c
	}
	var live LiveSets
	var held []kept
	for _, s := range referenceCorpus(30) {
		p := mustFromSource(t, s, 4, OptNone)
		for _, f := range p.Funcs {
			in, out := f.Liveness()
			held = append(held, kept{in, out, deep(in), deep(out)})
			live.Compute(f)
			if !reflect.DeepEqual(live.In, in) || !reflect.DeepEqual(live.Out, out) {
				t.Fatalf("%s: %s: a reused LiveSets differs from Liveness", s, f.Name)
			}
		}
		p.OptimizeTo(1)
		p.IfConvert()
	}
	for i, k := range held {
		if !reflect.DeepEqual(k.in, k.wantIn) || !reflect.DeepEqual(k.out, k.wantOut) {
			t.Fatalf("Liveness result %d changed while later passes ran", i)
		}
	}
}

// TestOptimizeToSteadyStateAllocs: once the pooled scratch has grown to a
// program, optimizing another copy of it at -O1 allocates only what the
// passes leave in the IR and the call's own maps (the CSE and
// value-numbering tables, which a scratch does not keep) — not a register
// table, a reader list, a live set or Compact's walk and renumbering.
// Before the scratch outlived a call, ammp took 1,560 allocations and the
// wide block 4,360, most of them each register's reader list in localCSE's
// index; with Compact still allocating they took 120 and 112, and now
// about 44 and 84. The budgets are tripwires with room for a collection
// that empties the pool mid-measurement, not tuning targets.
func TestOptimizeToSteadyStateAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector makes sync.Pool drop what it is given")
	}
	wide, _, _, err := FromSource(wideBlockSrc(150), 4, OptNone)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		p      *Program
		budget float64
	}{
		{"ammp", mustFromSource(t, "ammp", 4, OptNone), 80},
		{"wide-block", wide, 100},
	} {
		// One copy warms the pool, one is AllocsPerRun's own warm-up run,
		// and each measured run optimizes a fresh copy.
		const runs = 10
		copies := make([]*Program, runs+2)
		for i := range copies {
			copies[i] = tc.p.Clone()
		}
		copies[0].OptimizeTo(1)
		next := 1
		allocs := testing.AllocsPerRun(runs, func() {
			copies[next].OptimizeTo(1)
			next++
		})
		t.Logf("%s: %.0f allocations per OptimizeTo(1)", tc.name, allocs)
		if allocs > tc.budget {
			t.Errorf("%s: OptimizeTo(1) allocated %.0f times on a warm scratch, budget %.0f", tc.name, allocs, tc.budget)
		}
	}
}

// raceBuild is set by race_test.go when the race detector is compiled in.
var raceBuild bool
