package wavec

import (
	"testing"

	"wavescalar/internal/asm"
	"wavescalar/internal/cfgir"
	"wavescalar/internal/isa"
	"wavescalar/internal/workloads"
)

func mustIR(tb testing.TB, name string) *cfgir.Program {
	tb.Helper()
	p, _, _, err := cfgir.FromSource(workloads.ByName(name).Src, 4, 1)
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	return p
}

// TestCompileConsumesOnlyItsInput: Compile rewrites the IR it is given,
// so a caller that wants several binaries hands it clones. Compiling
// clones must leave the original untouched, and the original must then
// still lower to what a fresh build lowers to.
func TestCompileConsumesOnlyItsInput(t *testing.T) {
	consumed := 0
	for _, name := range workloads.Names() {
		p := mustIR(t, name)
		before := p.String()
		for _, opts := range []Options{{IfConvert: true}, {}} {
			c := p.Clone()
			if _, err := Compile(c, opts); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if p.String() != before {
				t.Fatalf("%s: compiling a clone (%+v) changed the original", name, opts)
			}
			if c.String() != before {
				consumed++
			}
		}
		for _, opts := range []Options{{IfConvert: true}, {}} {
			want, err := Compile(mustIR(t, name), opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Compile(p.Clone(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if asm.Print(got) != asm.Print(want) {
				t.Errorf("%s: a clone compiles (%+v) to a different binary than a fresh build", name, opts)
			}
		}
	}
	if consumed == 0 {
		t.Error("Compile never rewrote its input: the clone discipline is no longer exercised")
	}
}

var sinkProgram *isa.Program

// BenchmarkWavecCompile is the lowering layer alone: optimized IR in,
// validated dataflow binary out (cloning the consumed input is outside the
// timer; the loop counts to b.N itself because go1.24's b.Loop never
// finishes at the default -benchtime when the body stops the timer).
func BenchmarkWavecCompile(b *testing.B) {
	for _, name := range []string{"gen:mixed:3745987421742060995", "ammp"} {
		p := mustIR(b, name)
		for _, opts := range []Options{{}, {IfConvert: true}} {
			mode := "steer"
			if opts.IfConvert {
				mode = "select"
			}
			b.Run(name+"/"+mode, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					c := p.Clone()
					b.StartTimer()
					wp, err := Compile(c, opts)
					if err != nil {
						b.Fatal(err)
					}
					sinkProgram = wp
				}
			})
		}
	}
}
