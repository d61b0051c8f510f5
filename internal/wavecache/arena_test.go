package wavecache

import (
	"testing"

	"wavescalar/internal/fault"
	"wavescalar/internal/placement"
	"wavescalar/internal/testprogs"
	"wavescalar/internal/workloads"
)

// TestArenaReuseBitIdentical pins the Arena contract: a reused arena — even
// one hopping between different programs and machine shapes — produces
// Results bit-identical to a fresh simulator for every run.
func TestArenaReuseBitIdentical(t *testing.T) {
	progs := []struct {
		name string
		src  string
	}{
		{testprogs.Heavy[0].Name, testprogs.Heavy[0].Src},
		{testprogs.Heavy[1].Name, testprogs.Heavy[1].Src},
	}
	shapes := [][2]int{{1, 1}, {2, 2}}

	a := NewArena()
	for round := 0; round < 2; round++ {
		for _, pr := range progs {
			wp := compileSource(t, pr.src)
			for _, sh := range shapes {
				cfg := DefaultConfig(sh[0], sh[1])
				want, err := Run(wp, mustPol(placement.NewDynamicSnake(cfg.Machine)), cfg)
				if err != nil {
					t.Fatalf("%s %dx%d fresh: %v", pr.name, sh[0], sh[1], err)
				}
				got, err := a.Run(wp, mustPol(placement.NewDynamicSnake(cfg.Machine)), cfg)
				if err != nil {
					t.Fatalf("%s %dx%d arena: %v", pr.name, sh[0], sh[1], err)
				}
				if got != want {
					t.Fatalf("%s %dx%d round %d: arena result diverged\n got %+v\nwant %+v",
						pr.name, sh[0], sh[1], round, got, want)
				}
			}
		}
	}

	// Kill, then reuse: a mid-run PE death wipes the dead PE's share of the
	// dense residency slice and the whole home cache; both the faulty run
	// and the clean run after it must match fresh simulators.
	wp := compileSource(t, progs[1].src)
	clean := DefaultConfig(2, 2)
	killed := clean
	killed.Faults = fault.Config{Seed: 11, KillPE: 0, KillCycle: 200}
	killed.MaxCycles = 20_000_000
	for _, cfg := range []Config{killed, clean, killed, clean} {
		want, err := Run(wp, mustPol(placement.NewDynamicSnake(cfg.Machine)), cfg)
		if err != nil {
			t.Fatalf("kill-then-reuse fresh: %v", err)
		}
		got, err := a.Run(wp, mustPol(placement.NewDynamicSnake(cfg.Machine)), cfg)
		if err != nil {
			t.Fatalf("kill-then-reuse arena: %v", err)
		}
		if got != want {
			t.Fatalf("kill-then-reuse (kill cycle %d): arena result diverged\n got %+v\nwant %+v",
				cfg.Faults.KillCycle, got, want)
		}
		if cfg.Faults.KillCycle > 0 && (got.Faults.PEKills != 1 || got.Faults.MigratedInstrs == 0) {
			t.Fatalf("kill-then-reuse: the kill migrated nothing: %+v", got.Faults)
		}
	}
}

// raceBuild is set by race_test.go when the race detector is compiled in.
var raceBuild bool

// TestArenaSteadyStateAllocs pins the tentpole claim: once an arena has
// run a workload at a shape, re-running that cell allocates (nearly)
// nothing inside the simulator. The placement policy is constructed fresh
// per run — as the concurrency contract requires — so the budget subtracts
// its construction cost, isolating the simulator's own fire/deliver/memory
// path. Heavy[0] fires 22,690 instructions and issues no memory operation;
// the lu rows put thousands of loads and stores through every memory mode's
// arrive/commit path, where one escaping cookie is one allocation per
// operation.
func TestArenaSteadyStateAllocs(t *testing.T) {
	lu := workloads.ByName("lu").Src
	for _, tc := range []struct {
		name, src string
		mode      MemoryMode
		usesMem   bool
	}{
		{"compute-only", testprogs.Heavy[0].Src, MemOrdered, false},
		{"lu/" + MemOrdered.String(), lu, MemOrdered, true},
		{"lu/" + MemSerial.String(), lu, MemSerial, true},
		{"lu/" + MemIdeal.String(), lu, MemIdeal, true},
		{"lu/" + MemSpec.String(), lu, MemSpec, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.usesMem && raceBuild {
				// The instrumented build turns off the compiler's in-place
				// append(s, make(...)...) extension that waveorder's wave
				// window relies on: ~2,800 allocations a run in every mode,
				// at the commit before these rows existed too.
				t.Skip("allocation counts on the memory path are not meaningful under -race")
			}
			wp := compileSource(t, tc.src)
			cfg := DefaultConfig(2, 2)
			cfg.MemMode = tc.mode
			a := NewArena()
			// Warm the arena to its high-water mark.
			var memOps uint64
			for i := 0; i < 2; i++ {
				res, err := a.Run(wp, mustPol(placement.NewDynamicSnake(cfg.Machine)), cfg)
				if err != nil {
					t.Fatal(err)
				}
				memOps = res.Order.Loads + res.Order.Stores
			}
			if (memOps > 0) != tc.usesMem {
				t.Fatalf("%d loads and stores issued; the row is not the workload its name says", memOps)
			}

			polOnly := testing.AllocsPerRun(5, func() {
				mustPol(placement.NewDynamicSnake(cfg.Machine))
			})
			cell := testing.AllocsPerRun(5, func() {
				if _, err := a.Run(wp, mustPol(placement.NewDynamicSnake(cfg.Machine)), cfg); err != nil {
					t.Fatal(err)
				}
			})
			simAllocs := cell - polOnly
			t.Logf("%d memory operations; policy construction: %.0f allocs; full cell: %.0f allocs; simulator core: %.0f allocs",
				memOps, polOnly, cell, simAllocs)
			// The pre-pooling simulator allocated on the order of 10^5 times
			// for the compute-only cell; the budget is a hard regression
			// tripwire, not a tuning target.
			if simAllocs > 64 {
				t.Fatalf("steady-state simulator core allocated %.0f times per run, budget 64", simAllocs)
			}
		})
	}
}

// BenchmarkRunFresh/BenchmarkRunArena measure what arena reuse saves on a
// full simulation cell.
func BenchmarkRunFresh(b *testing.B) {
	wp := compileSource(b, testprogs.Heavy[0].Src)
	cfg := DefaultConfig(2, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(wp, mustPol(placement.NewDynamicSnake(cfg.Machine)), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunArena(b *testing.B) {
	wp := compileSource(b, testprogs.Heavy[0].Src)
	cfg := DefaultConfig(2, 2)
	a := NewArena()
	if _, err := a.Run(wp, mustPol(placement.NewDynamicSnake(cfg.Machine)), cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Run(wp, mustPol(placement.NewDynamicSnake(cfg.Machine)), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunKernel is the simulator core per memory mode: the mcf kernel
// on a warm Arena (the experiment harness's steady state), reporting host
// nanoseconds per delivered token next to ns/op. The policy is built off
// the clock, so allocs/op is the simulator's own and must stay inside
// TestArenaSteadyStateAllocs's budget.
func BenchmarkRunKernel(b *testing.B) {
	wp := compileSource(b, workloads.ByName("mcf").Src)
	for _, mode := range []MemoryMode{MemOrdered, MemSerial, MemIdeal, MemSpec} {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := DefaultConfig(4, 4)
			cfg.MemMode = mode
			a := NewArena()
			run := func() Result {
				b.StopTimer()
				pol := mustPol(placement.NewDynamicSnake(cfg.Machine))
				b.StartTimer()
				res, err := a.Run(wp, pol, cfg)
				if err != nil {
					b.Fatal(err)
				}
				return res
			}
			run()
			b.ReportAllocs()
			b.ResetTimer()
			var tokens uint64
			for i := 0; i < b.N; i++ {
				tokens += run().Tokens
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tokens), "ns/token")
		})
	}
}
