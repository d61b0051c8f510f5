package asm

import (
	"fmt"
	"strings"
	"testing"

	"wavescalar/internal/cfgir"
	"wavescalar/internal/interp"
	"wavescalar/internal/isa"
	"wavescalar/internal/testprogs"
	"wavescalar/internal/wavec"
)

func compileSource(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, _, _, err := cfgir.FromSource(src, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	wp, err := wavec.Compile(p, wavec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return wp
}

// TestRoundTrip prints and re-parses every corpus binary and checks the
// reconstructed program still validates and executes identically.
func TestRoundTrip(t *testing.T) {
	for _, c := range testprogs.Corpus {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			wp := compileSource(t, c.Src)
			want, err := interp.New(wp, 0).Run()
			if err != nil {
				t.Fatal(err)
			}
			text := Print(wp)
			back, err := Parse(text)
			if err != nil {
				t.Fatalf("parse failed: %v\n%s", err, text)
			}
			got, err := interp.New(back, 0).Run()
			if err != nil {
				t.Fatalf("re-parsed program failed: %v", err)
			}
			if got != want {
				t.Fatalf("round trip changed result: %d -> %d", want, got)
			}
			// And a second print must be byte-identical (canonical form).
			if Print(back) != text {
				t.Error("second print differs from first")
			}
		})
	}
}

func TestHandWrittenProgram(t *testing.T) {
	text := `
memwords 8
global g 0 8 init 5
func main entry numwaves=1
  params i0
  i0: nop wave=0 D[i1.0]
  i1: const imm=37 wave=0 D[i2.0]
  i2: return wave=0
`
	p, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	got, err := interp.New(p, 0).Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != 37 {
		t.Fatalf("result = %d, want 37", got)
	}
}

func TestHandWrittenSteer(t *testing.T) {
	text := `
memwords 1
func main entry numwaves=1
  params i0
  i0: nop wave=0 D[i1.0 i2.0 i3.1]
  i1: const imm=1 wave=0 D[i3.0]
  i2: const imm=99 wave=0
  i3: steer wave=0 T[i4.0] F[i5.0]
  i4: return wave=0
  i5: return wave=0
`
	p, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	// Trigger value flows through the steer's true side into i4's return;
	// the returned value is the trigger itself (context 0 trigger = 0).
	if _, err := interp.New(p, 0).Run(); err != nil {
		t.Fatal(err)
	}
	dests, destsFalse := p.Funcs[0].Out(&p.Funcs[0].Instrs[3])
	if len(dests) != 1 || len(destsFalse) != 1 {
		t.Fatalf("steer dest lists wrong: %v / %v", dests, destsFalse)
	}
}

func TestParseErrors(t *testing.T) {
	bad := map[string]string{
		"garbage":          "wibble wobble",
		"bad opcode":       "func main entry numwaves=1\n  params i0\n  i0: frobnicate wave=0",
		"label order":      "func main entry numwaves=1\n  params i0\n  i5: nop wave=0",
		"instr no func":    "i0: nop wave=0",
		"unknown attr":     "func main entry numwaves=1\n  params i0\n  i0: nop wave=0 bogus=1",
		"unterminated":     "func main entry numwaves=1\n  params i0\n  i0: nop wave=0 D[i1.0",
		"bad dest":         "func main entry numwaves=1\n  params i0\n  i0: nop wave=0 D[x.0]",
		"bad mem":          "func main entry numwaves=1\n  params i0\n  i0: nop wave=0 mem=load,0",
		"unknown target":   "func main entry numwaves=1\n  params i0\n  i0: new-ctx target=nope:0 wave=0\n",
		"invalid validate": "memwords 4\nfunc main entry numwaves=1\n  params i0\n  i0: nop wave=0 D[i9.0]",
	}
	for name, text := range bad {
		if _, err := Parse(text); err == nil {
			t.Errorf("%s: accepted %q", name, text)
		}
	}
}

func TestPrintContainsAnnotations(t *testing.T) {
	wp := compileSource(t, "global a[4];\nfunc main() { a[0] = 7; return a[0]; }")
	text := Print(wp)
	for _, want := range []string{"mem=store,", "mem=load,", "mem=end,", "touches", "memwords", "global a 0 4"} {
		if !strings.Contains(text, want) {
			t.Errorf("assembly missing %q:\n%s", want, text)
		}
	}
}

func TestDotExport(t *testing.T) {
	wp := compileSource(t, "global a[4];\nfunc main() { for var i = 0; i < 4; i = i + 1 { a[i] = i; } return a[2]; }")
	dot := Dot(wp, wp.Entry)
	for _, want := range []string{"digraph", "cluster_wave", "->", "steer", "diamond", "dashed"} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot output missing %q", want)
		}
	}
	// Every instruction must appear as a node.
	f := &wp.Funcs[wp.Entry]
	for i := range f.Instrs {
		if !strings.Contains(dot, fmt.Sprintf("i%d [", i)) {
			t.Errorf("instruction i%d missing from dot output", i)
		}
	}
}
