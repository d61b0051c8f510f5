package wavecache

import (
	"math/bits"
	"testing"

	"wavescalar/internal/isa"
	"wavescalar/internal/placement"
	"wavescalar/internal/testprogs"
	"wavescalar/internal/workloads"
)

// TestPredecodeMatchesProgram: the dense instruction table the event loop
// runs on must say exactly what the isa.Program says, for the hand-written
// corpus, the heavy programs, a slice of the generated corpus (every
// family), and the ten kernels: every scalar field, and every (gi, port)
// mapping back to the isa.Dest it was decoded from.
func TestPredecodeMatchesProgram(t *testing.T) {
	var cases []testprogs.Case
	cases = append(cases, testprogs.Corpus...)
	cases = append(cases, testprogs.Heavy...)
	for _, spec := range testprogs.CorpusSpecs(20, 1) {
		src, err := testprogs.GenerateSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, testprogs.Case{Name: spec.Name(), Src: src})
	}
	for _, name := range workloads.Names() {
		cases = append(cases, testprogs.Case{Name: name, Src: workloads.ByName(name).Src})
	}

	var s sim // one sim for all: predecode must not leak between programs
	immediates, bypassed := 0, 0
	for _, c := range cases {
		p := compileSource(t, c.Src)
		s.predecode(p)
		if len(s.code) != p.NumInstrs() {
			t.Fatalf("%s: %d dinstrs for %d instructions", c.Name, len(s.code), p.NumInstrs())
		}
		for fi := range p.Funcs {
			f := &p.Funcs[fi]
			base := s.instrBase[fi]
			checkDests := func(what string, id int, got []ddest, want []isa.Dest) {
				if len(got) != len(want) {
					t.Fatalf("%s %s/i%d: %d %s, want %d", c.Name, f.Name, id, len(got), what, len(want))
				}
				for k, d := range got {
					back := isa.Dest{Instr: isa.InstrID(int(d.gi) - base), Port: d.port}
					if back != want[k] {
						t.Fatalf("%s %s/i%d %s[%d]: (gi %d, port %d) maps back to %+v, want %+v",
							c.Name, f.Name, id, what, k, d.gi, d.port, back, want[k])
					}
				}
			}
			for id := range f.Instrs {
				in := &f.Instrs[id]
				di := &s.code[base+id]
				need := in.Op.NumInputs()
				if di.op != in.Op || di.immMask != in.ImmMask || di.immVals != in.ImmVals ||
					di.imm != in.Imm || di.fn != isa.FuncID(fi) || di.id != isa.InstrID(id) || di.in != in ||
					int(di.full) != 1<<need-1 || int(di.tokens) != need-bits.OnesCount8(in.ImmMask) {
					t.Fatalf("%s %s/i%d: dinstr %+v does not match %+v", c.Name, f.Name, id, *di, *in)
				}
				dests, destsFalse := f.Out(in)
				checkDests("dests", id, di.dests, dests)
				checkDests("destsFalse", id, di.destsFalse, destsFalse)
				wantTarget := int32(-1)
				switch in.Op {
				case isa.OpSendArg:
					wantTarget = int32(s.instrBase[in.Target] + int(p.Funcs[in.Target].Params[in.TargetPad]))
				case isa.OpNewCtx:
					wantTarget = int32(base + int(in.TargetPad))
				}
				if di.target != wantTarget {
					t.Fatalf("%s %s/i%d (%s): target %d, want %d", c.Name, f.Name, id, in.Op, di.target, wantTarget)
				}
				if in.ImmMask != 0 {
					immediates++
				}
				if di.tokens == 1 {
					bypassed++
				}
			}
		}
	}
	if immediates == 0 || bypassed == 0 {
		t.Fatalf("vacuous: %d instructions with immediates, %d single-token instructions", immediates, bypassed)
	}
}

// bypassProgram is main(): pad -> select -> return, where the select has
// two immediate ports and takes its one token on port tokenPort, and the
// pad's token is aimed at port aimPort.
func bypassProgram(tokenPort, aimPort uint8) *isa.Program {
	sel := isa.Instruction{Op: isa.OpSelect}
	imm := [3]int64{1, 70, 80} // predicate true, true value, false value
	for port := uint8(0); port < 3; port++ {
		if port != tokenPort {
			sel.ImmMask |= 1 << port
			sel.ImmVals[port] = imm[port]
		}
	}
	main := isa.Function{Name: "main", Params: []isa.InstrID{0}, NumWaves: 1}
	main.Add(isa.Instruction{Op: isa.OpNop}, []isa.Dest{{Instr: 1, Port: aimPort}}, nil, "")
	main.Add(sel, []isa.Dest{{Instr: 2, Port: 0}}, nil, "")
	main.Add(isa.Instruction{Op: isa.OpReturn}, nil, nil, "")
	return &isa.Program{Entry: 0, Funcs: []isa.Function{main}, MemWords: 64}
}

// TestSingleInputBypass: an instruction with two immediates and one token
// port completes on that token, so deliver skips the matching table. It
// must fire once, with the operands the table would have assembled — the
// values and cycle counts below were recorded from the build that always
// went through the table (PR 15's parent) — and a token aimed at one of the
// immediate ports must still take the table path and fail with that
// build's collision error, verbatim.
func TestSingleInputBypass(t *testing.T) {
	cfg := DefaultConfig(2, 2)
	for _, c := range []struct {
		tokenPort uint8
		value     int64 // the boot token is 0: as the predicate it selects false, as a value it is 0
	}{
		{0, 80},
		{1, 0},
		{2, 70},
	} {
		a := NewArena()
		res, err := a.Run(bypassProgram(c.tokenPort, c.tokenPort), mustPol(placement.NewDynamicSnake(cfg.Machine)), cfg)
		if err != nil {
			t.Fatalf("token port %d: %v", c.tokenPort, err)
		}
		if res.Value != c.value || res.Cycles != 99 || res.Fired != 3 || res.Tokens != 3 || res.Swaps != 3 {
			t.Errorf("token port %d: value %d cycles %d fired %d tokens %d swaps %d; want value %d cycles 99, 3 of each",
				c.tokenPort, res.Value, res.Cycles, res.Fired, res.Tokens, res.Swaps, c.value)
		}
		if n := a.s.opSlab.Cap(); n != 0 {
			t.Errorf("token port %d: the matching table assembled %d tuples; every instruction here completes on one token", c.tokenPort, n)
		}
	}

	_, err := Run(bypassProgram(0, 2), mustPol(placement.NewDynamicSnake(cfg.Machine)), cfg)
	const want = "wavecache: token collision at main/i1 port 2 tag <0.0>"
	if err == nil || err.Error() != want {
		t.Fatalf("token aimed at an immediate port: got %v, want %q", err, want)
	}
}
