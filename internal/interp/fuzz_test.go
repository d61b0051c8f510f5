package interp

import (
	"testing"

	"wavescalar/internal/cfgir"
	"wavescalar/internal/lang"
	"wavescalar/internal/linear"
	"wavescalar/internal/ooo"
	"wavescalar/internal/placement"
	"wavescalar/internal/testprogs"
	"wavescalar/internal/wavec"
	"wavescalar/internal/wavecache"
)

// TestDifferentialFuzz generates random programs and requires every
// execution engine — AST evaluator, IR interpreter, dataflow interpreter
// (plain, optimized, if-converted, unrolled), linear emulator, WaveCache
// simulator, and superscalar model — to agree on the result and the final
// memory image. This is the repository's strongest correctness net: any
// divergence in the compiler, the wave-ordering logic, or a simulator
// surfaces as a seed-reproducible failure.
func TestDifferentialFuzz(t *testing.T) {
	seeds := int64(120)
	if testing.Short() {
		seeds = 25
	}
	checked := 0
	for seed := int64(0); seed < seeds; seed++ {
		src := testprogs.Generate(seed)
		if !testprogs.TerminatesWithin(src, 300_000) {
			continue // too long for the slow engines; filtered, not failed
		}
		checked++

		f, err := lang.ParseAndCheck(src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		ev := lang.NewEvaluator(f, 0)
		want, err := ev.Run()
		if err != nil {
			t.Fatalf("seed %d: evaluator: %v", seed, err)
		}
		wantMem := ev.Memory()

		checkMem := func(engine string, mem []int64) {
			t.Helper()
			for i := range wantMem {
				if mem[i] != wantMem[i] {
					t.Fatalf("seed %d: %s memory[%d] = %d, want %d\n%s",
						seed, engine, i, mem[i], wantMem[i], src)
				}
			}
		}

		type variant struct {
			name   string
			unroll int
			opt    bool
			ifConv bool
		}
		for _, v := range []variant{
			{"plain", 1, false, false},
			{"opt", 1, true, false},
			{"opt+select", 1, true, true},
			{"opt+unroll", 4, true, false},
		} {
			lvl := cfgir.OptNone
			if v.opt {
				lvl = 0
			}
			p, _, _, err := cfgir.FromSource(src, v.unroll, lvl)
			if err != nil {
				t.Fatalf("seed %d/%s: %v", seed, v.name, err)
			}

			// IR interpreter.
			ip := cfgir.NewInterp(p, 0)
			got, err := ip.Run()
			if err != nil {
				t.Fatalf("seed %d/%s: IR interp: %v\n%s", seed, v.name, err, src)
			}
			if got != want {
				t.Fatalf("seed %d/%s: IR interp = %d, want %d\n%s", seed, v.name, got, want, src)
			}
			checkMem("IR interp "+v.name, ip.Memory())

			// Linear emulator, before wavec consumes the IR.
			lp, err := linear.Compile(p)
			if err != nil {
				t.Fatal(err)
			}
			em := linear.NewEmulator(lp, 0)
			got, err = em.Run()
			if err != nil {
				t.Fatalf("seed %d/%s: linear: %v\n%s", seed, v.name, err, src)
			}
			if got != want {
				t.Fatalf("seed %d/%s: linear = %d, want %d\n%s", seed, v.name, got, want, src)
			}
			checkMem("linear "+v.name, em.Memory())

			// Dataflow interpreter.
			wp, err := wavec.Compile(p, wavec.Options{IfConvert: v.ifConv})
			if err != nil {
				t.Fatalf("seed %d/%s: wavec: %v\n%s", seed, v.name, err, src)
			}
			m := New(wp, 0)
			got, err = m.Run()
			if err != nil {
				t.Fatalf("seed %d/%s: dataflow: %v\n%s", seed, v.name, err, src)
			}
			if got != want {
				t.Fatalf("seed %d/%s: dataflow = %d, want %d\n%s", seed, v.name, got, want, src)
			}
			checkMem("dataflow "+v.name, m.Memory())

			// Timing engines on the optimized variant only (they are slow).
			if v.name == "opt" {
				cfg := wavecache.DefaultConfig(2, 2)
				pol, err := placement.NewDynamicSnake(cfg.Machine)
				if err != nil {
					t.Fatalf("seed %d: placement: %v", seed, err)
				}
				a := wavecache.NewArena()
				res, err := a.Run(wp, pol, cfg)
				if err != nil {
					t.Fatalf("seed %d: wavecache: %v\n%s", seed, err, src)
				}
				if res.Value != want {
					t.Fatalf("seed %d: wavecache = %d, want %d\n%s", seed, res.Value, want, src)
				}
				checkMem("wavecache", a.Memory())

				ores, err := ooo.Run(lp, ooo.DefaultConfig())
				if err != nil {
					t.Fatalf("seed %d: ooo: %v\n%s", seed, err, src)
				}
				if ores.Value != want {
					t.Fatalf("seed %d: ooo = %d, want %d\n%s", seed, ores.Value, want, src)
				}
			}
		}
	}
	if checked < int(seeds)/2 {
		t.Fatalf("only %d/%d seeds usable; generator too explosive", checked, seeds)
	}
	t.Logf("differentially verified %d random programs across all engines", checked)
}
