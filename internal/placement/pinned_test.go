package placement

import (
	"fmt"
	"hash/fnv"
	"testing"

	"wavescalar/internal/cfgir"
	"wavescalar/internal/fault"
	"wavescalar/internal/isa"
	"wavescalar/internal/wavec"
	"wavescalar/internal/workloads"
)

// compileWSL builds src the way harness.CompileSource builds its steer
// binary at the default options: unrolled by 4, memory tier on.
func compileWSL(t testing.TB, src string) *isa.Program {
	t.Helper()
	ir, _, _, err := cfgir.FromSource(src, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	wp, err := wavec.Compile(ir, wavec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return wp
}

// handBuilt is a two-function dataflow graph written out by hand: a steer
// with a false path, a join, and in the second function two roots feeding
// one chain. Policies read nothing of a program but its destination lists.
func handBuilt() *isa.Program {
	d := func(ids ...isa.InstrID) []isa.Dest {
		var out []isa.Dest
		for _, id := range ids {
			out = append(out, isa.Dest{Instr: id})
		}
		return out
	}
	main := isa.Function{Name: "main"}
	main.Add(isa.Instruction{}, d(1, 2), nil, "")
	main.Add(isa.Instruction{}, d(3), nil, "")
	main.Add(isa.Instruction{}, d(3), nil, "")
	main.Add(isa.Instruction{Op: isa.OpSteer}, d(5), d(4), "")
	main.Add(isa.Instruction{}, d(5), nil, "")
	main.Add(isa.Instruction{}, nil, nil, "")
	leaf := isa.Function{Name: "leaf"}
	leaf.Add(isa.Instruction{}, d(2), nil, "")
	leaf.Add(isa.Instruction{}, d(2), nil, "")
	leaf.Add(isa.Instruction{}, d(3), nil, "")
	leaf.Add(isa.Instruction{}, nil, nil, "")
	return &isa.Program{Funcs: []isa.Function{main, leaf}}
}

// pinnedAssignments are FNV-1a digests of the (func, instr, PE) sequence
// TestPolicyAssignmentsPinned drives, recorded from the six separate policy
// types this package had before they became one (the parent of the commit
// that added this file's constants): any change is a change of placement.
var pinnedAssignments = map[string]uint64{
	"depth-first-snake/gen:recursion:3/2x2-defect10":         0xd560d070733242a6,
	"depth-first-snake/gen:recursion:3/4x4":                  0x22601c9461f45fde,
	"depth-first-snake/hand-built/2x2-defect10":              0xf39455744c895605,
	"depth-first-snake/hand-built/4x4":                       0x5a33bfe410c0aef6,
	"depth-first-snake/lu/2x2-defect10":                      0x2e20d33f682378f2,
	"depth-first-snake/lu/4x4":                               0xbffbaa9d83180851,
	"dynamic-depth-first-snake/gen:recursion:3/2x2-defect10": 0xd56b3a512ac615b9,
	"dynamic-depth-first-snake/gen:recursion:3/4x4":          0xce1d1ecb5bc33e51,
	"dynamic-depth-first-snake/hand-built/2x2-defect10":      0xd8ad7862c2684c78,
	"dynamic-depth-first-snake/hand-built/4x4":               0x5a33bfe410c0aef6,
	"dynamic-depth-first-snake/lu/2x2-defect10":              0x8413af455fb88ced,
	"dynamic-depth-first-snake/lu/4x4":                       0xdb946a12009d8577,
	"dynamic-snake/gen:recursion:3/2x2-defect10":             0xdd8751f8d9daa95c,
	"dynamic-snake/gen:recursion:3/4x4":                      0x4d486563754b5e7b,
	"dynamic-snake/hand-built/2x2-defect10":                  0xceb11ac60616f554,
	"dynamic-snake/hand-built/4x4":                           0x5a33bfe410c0aef6,
	"dynamic-snake/lu/2x2-defect10":                          0xee7b50e6543098b7,
	"dynamic-snake/lu/4x4":                                   0x157364adfc285c19,
	"packed-random/gen:recursion:3/2x2-defect10":             0xebc386e20fc8cf2e,
	"packed-random/gen:recursion:3/4x4":                      0x2d4680de90a0d98,
	"packed-random/hand-built/2x2-defect10":                  0x1715b89bad15ef72,
	"packed-random/hand-built/4x4":                           0x865f8e8f0b3e5e91,
	"packed-random/lu/2x2-defect10":                          0xb642d1e439091d01,
	"packed-random/lu/4x4":                                   0xf720f6efc25291e7,
	"random/gen:recursion:3/2x2-defect10":                    0x1399312d4f810bcf,
	"random/gen:recursion:3/4x4":                             0x59d09d9b05eeec7e,
	"random/hand-built/2x2-defect10":                         0xc1c3aac647fe16b2,
	"random/hand-built/4x4":                                  0xc253a8bf1e77818a,
	"random/lu/2x2-defect10":                                 0x6d2e61e5a66b56df,
	"random/lu/4x4":                                          0x59d99f38511610f5,
	"static-snake/gen:recursion:3/2x2-defect10":              0x1d8c52845bffc51b,
	"static-snake/gen:recursion:3/4x4":                       0x71659e2e2c5bcc9e,
	"static-snake/hand-built/2x2-defect10":                   0xc72d94b1e084bc08,
	"static-snake/hand-built/4x4":                            0x5a33bfe410c0aef6,
	"static-snake/lu/2x2-defect10":                           0x9406ddbe7820effa,
	"static-snake/lu/4x4":                                    0x9786473e2253e708,
}

// TestPolicyAssignmentsPinned: every built-in policy must hand out the same
// home for the same reference sequence as the recorded implementation did,
// before and after a mid-sequence MarkDefective. The sequence is a seeded
// pseudo-random walk over the program's instructions (with repeats), a
// kill of the first PE the walk occupied at the halfway point, and a final
// sweep of every instruction in program order.
func TestPolicyAssignmentsPinned(t *testing.T) {
	corpus := workloads.ByName("gen:recursion:3")
	if corpus == nil {
		t.Fatal("corpus program gen:recursion:3 not synthesized")
	}
	programs := []struct {
		name string
		prog *isa.Program
	}{
		{"lu", compileWSL(t, workloads.ByName("lu").Src)},
		{"gen:recursion:3", compileWSL(t, corpus.Src)},
		{"hand-built", handBuilt()},
	}
	if n := len(programs[1].prog.Funcs); n < 2 {
		t.Fatalf("corpus program has %d functions, want several", n)
	}

	roomy := DefaultMachine(4, 4)
	roomy.Capacity = 16
	// Two homes a PE on 2x2 is 256 slots less the dead PEs' share, so lu's
	// 692 instructions lap the fill more than twice.
	defective := DefaultMachine(2, 2)
	defective.Capacity = 2
	defective.Defective = fault.DefectMap(fault.Config{DefectRate: 0.10, Seed: 7}, defective.NumPEs())
	machines := []struct {
		name string
		m    Machine
	}{{"4x4", roomy}, {"2x2-defect10", defective}}

	for _, name := range []string{"dynamic-snake", "static-snake", "depth-first-snake",
		"dynamic-depth-first-snake", "random", "packed-random"} {
		for _, pr := range programs {
			for _, mc := range machines {
				key := fmt.Sprintf("%s/%s/%s", name, pr.name, mc.name)
				pol, err := New(name, mc.m, pr.prog, 42)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				refs := allRefs(pr.prog)
				h := fnv.New64a()
				assign := func(i int) int {
					pe := pol.Assign(refs[i])
					fmt.Fprintf(h, "%d.%d@%d;", refs[i].Func, refs[i].Instr, pe)
					return pe
				}
				state := uint64(0x9e3779b97f4a7c15)
				walk := func(steps int) {
					for ; steps > 0; steps-- {
						state = state*6364136223846793005 + 1442695040888963407
						assign(int((state >> 33) % uint64(len(refs))))
					}
				}
				victim := assign(0)
				walk(len(refs) / 2)
				if err := pol.(Reconfigurable).MarkDefective(victim); err != nil {
					t.Fatalf("%s: MarkDefective(%d): %v", key, victim, err)
				}
				walk(len(refs) / 2)
				for i := range refs {
					if pe := assign(i); pe == victim || (mc.m.Defective != nil && mc.m.Defective[pe]) {
						t.Errorf("%s: %v homed on dead PE %d", key, refs[i], pe)
					}
				}
				if got := h.Sum64(); got != pinnedAssignments[key] {
					t.Errorf("placement moved:\n\t%q: %#x,", key, got)
				}
			}
		}
	}
}

// BenchmarkNewPolicy is what one simulated run pays placement: build the
// policy and resolve every instruction of lu once, in program order, on the
// default 4x4 machine.
func BenchmarkNewPolicy(b *testing.B) {
	prog := compileWSL(b, workloads.ByName("lu").Src)
	refs := allRefs(prog)
	m := DefaultMachine(4, 4)
	m.Capacity = 16
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pol, err := New(name, m, prog, 12345)
				if err != nil {
					b.Fatal(err)
				}
				for _, ref := range refs {
					pol.Assign(ref)
				}
			}
		})
	}
}
