package wavecache

import (
	"errors"
	"reflect"
	"testing"

	"wavescalar/internal/fault"
	"wavescalar/internal/isa"
	"wavescalar/internal/placement"
	"wavescalar/internal/testprogs"
	"wavescalar/internal/trace"
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
		fresh := NewArena()
		want, err := fresh.Run(wp, mustPol(placement.NewDynamicSnake(cfg.Machine)), cfg)
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
		if got, want := a.Fence(), fresh.Fence(); got != want {
			t.Fatalf("kill-then-reuse (kill cycle %d): arena fence diverged\n got %+v\nwant %+v",
				cfg.Faults.KillCycle, got, want)
		}
		if cfg.Faults.KillCycle > 0 && (got.Faults.PEKills != 1 || got.Faults.MigratedInstrs == 0) {
			t.Fatalf("kill-then-reuse: the kill migrated nothing: %+v", got.Faults)
		}
	}
}

// TestMetricsBuiltWithoutTracer: a run with Config.Metrics and no Tracer
// runs untraced, and a reused arena merges the same Metrics for a cell as it
// did the first time, after a run on another grid: the engine's counters
// reset with the arena.
func TestMetricsBuiltWithoutTracer(t *testing.T) {
	wp := compileSource(t, workloads.ByName("lu").Src)
	a := NewArena()
	var first trace.Metrics
	for i, side := range []int{2, 1, 2} {
		cfg := DefaultConfig(side, side)
		cfg.Machine.Capacity = 4 // spread lu over the clusters
		agg := trace.NewAggregate()
		cfg.Metrics = agg
		if _, err := a.Run(wp, mustPol(placement.NewDynamicSnake(cfg.Machine)), cfg); err != nil {
			t.Fatal(err)
		}
		if a.s.tr != nil {
			t.Fatal("a metrics-only run carried a tracer")
		}
		m := agg.Snapshot()
		if m.Runs != 1 || m.Fires == 0 || m.Placements == 0 || m.OrderStallCycles == 0 {
			t.Fatalf("%dx%d: metrics not built: %+v", side, side, m)
		}
		if i == 0 {
			first = m
		} else if side == 2 && !reflect.DeepEqual(m, first) {
			t.Fatalf("the reused arena's metrics differ:\n got %+v\nwant %+v", m, first)
		}
	}
	if first.MeshMsgs == 0 {
		t.Fatal("the 2x2 run sent nothing over the mesh: link use is not exercised")
	}
}

// TestCancelAtEventNThenReuse is the reuse contract at its worst moment: a
// run cancelled through Config.Cancel anywhere between its first events and
// its last leaves match slots occupied, waves bound (under MemSpec with open
// and squashed epochs on their bindings), a half-drained ring behind, and the
// next Run's reset must forget all of it. mcf and lu are cancelled at the
// start, at every seventeenth of their wave retirements and at the last one;
// then a different program (small: calls, a loop, loads and stores) and then
// the cancelled one again run on the same arena, and Result and fence —
// commit trace, memory image, every work counter — must be a fresh arena's.
// Each memory mode takes the first point, the last and every fourth between,
// staggered so that the four modes cover all eighteen between them.
//
// Config.Cancel is polled every cancelPollInterval events, so the channel has
// to close at a fixed point of the event schedule for the test to repeat
// itself: the test stands between the ordering engine's wave-retire hook and
// the simulator's and closes it at the n-th retirement.
func TestCancelAtEventNThenReuse(t *testing.T) {
	if testing.Short() || raceBuild {
		// One goroutine throughout: nothing for the detector to find at ten
		// times the cost.
		t.Skip("cancels and re-runs two kernels at eighteen points across four memory modes")
	}
	type ref struct {
		res   Result
		fence Fence
	}
	var other string
	for _, c := range testprogs.Corpus {
		if c.Name == "recursion_memory" {
			other = c.Src
		}
	}
	progs := []*isa.Program{
		compileSource(t, workloads.ByName("mcf").Src),
		compileSource(t, workloads.ByName("lu").Src),
		compileSource(t, other),
	}
	cancelled := 0
	for mi, mode := range []MemoryMode{MemOrdered, MemSerial, MemIdeal, MemSpec} {
		cfg := DefaultConfig(2, 2)
		cfg.MemMode = mode
		run := func(a *Arena, wp *isa.Program, cancel <-chan struct{}) (ref, error) {
			c := cfg
			c.Cancel = cancel
			res, err := a.Run(wp, mustPol(placement.NewDynamicSnake(c.Machine)), c)
			return ref{res, a.Fence()}, err
		}
		want := make([]ref, len(progs))
		for i, wp := range progs {
			var err error
			if want[i], err = run(NewArena(), wp, nil); err != nil {
				t.Fatal(err)
			}
		}

		a := NewArena()
		if _, err := run(a, progs[2], nil); err != nil { // the first run makes the engine
			t.Fatal(err)
		}
		var retired, closeAt uint64
		var cancel chan struct{}
		a.s.engine.SetRetireHooks(func(ctx, wave uint32) {
			if retired++; retired == closeAt {
				close(cancel)
			}
			a.s.waveRetire(ctx, wave)
		}, a.s.waveRetire)

		for k := 0; k < 2; k++ { // the kernel cancelled
			waves := want[k].res.Order.WavesDone
			for step := 0; step <= 17; step++ {
				if step != 0 && step != 17 && step%4 != mi {
					continue
				}
				cancel = make(chan struct{})
				retired, closeAt = 0, max(waves*uint64(step)/17, 1)
				if step == 0 {
					close(cancel) // before the first event: the first poll sees it
					closeAt = 0
				}
				_, err := run(a, progs[k], cancel)
				var fe *fault.FaultError
				switch {
				case errors.As(err, &fe) && fe.Kind == fault.KindCancelled:
					cancelled++
				case err != nil || step < 17:
					// Only the last retirement may be too late for a poll to see.
					t.Fatalf("%v: program %d, step %d: run was not cancelled: %v", mode, k, step, err)
				}
				for _, i := range []int{2, k} {
					got, err := run(a, progs[i], nil)
					if err != nil {
						t.Fatal(err)
					}
					if got != want[i] {
						t.Fatalf("%v: program %d cancelled at retirement %d of %d, then program %d: the reused arena diverged from a fresh one\n got %+v\nwant %+v",
							mode, k, closeAt, waves, i, got, want[i])
					}
				}
			}
		}
	}
	if want := 2 * (16 + 4); cancelled < want { // per kernel: the staggered points, and the first in each mode
		t.Errorf("%d runs were cancelled, want at least %d", cancelled, want)
	}
}

// TestRingCoversDefaultLatencies: the event queue's ring spans 512 cycles
// because nothing the default machine does schedules further ahead than that
// more than a handful of times a run. A later latency parameter that
// outgrows the ring would ride the heap on every push — results stay exact,
// the simulator just gets slower — so the heap's share is pinned here where
// a perf regression of that kind would otherwise go unnoticed.
func TestRingCoversDefaultLatencies(t *testing.T) {
	for _, name := range []string{"mcf", "lu"} {
		wp := compileSource(t, workloads.ByName(name).Src)
		cfg := DefaultConfig(4, 4)
		a := NewArena()
		if _, err := a.Run(wp, mustPol(placement.NewDynamicSnake(cfg.Machine)), cfg); err != nil {
			t.Fatal(err)
		}
		if w := a.Fence().Work; w.HeapPushes > 8 {
			t.Errorf("%s: %d of %d pushes missed the %d-cycle ring, want at most 8", name, w.HeapPushes, w.Events, wheelSize)
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
