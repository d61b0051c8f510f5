package wavec

import (
	"math/rand"
	"strings"
	"testing"

	"wavescalar/internal/cfgir"
	"wavescalar/internal/isa"
	"wavescalar/internal/workloads"
)

// TestRegTableMatchesMaps drives the stamp-indexed register table and the
// two per-block maps it replaced (cur: register -> token source, consts:
// register -> block-local constant) with the same random operations, over
// many block passes on one table, and demands the same answers: a slot left
// by an earlier pass must read as absent.
func TestRegTableMatchesMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := &cfgir.Func{NumRegs: 40}
	var tab regTable
	reg := func() cfgir.Reg { return cfgir.Reg(rng.Intn(f.NumRegs+2)) + triggerReg }
	for pass := 0; pass < 200; pass++ {
		if pass == 100 {
			f.NumRegs = 90 // a later function has more registers
		}
		tab.begin(f)
		cur := make(map[cfgir.Reg]valRef)
		consts := make(map[cfgir.Reg]int64)
		for op := 0; op < 60; op++ {
			r := reg()
			switch rng.Intn(4) {
			case 0: // a defining instruction
				v := srcVal(isa.InstrID(rng.Intn(1000)))
				tab.define(r, v)
				cur[r] = v
				delete(consts, r)
			case 1: // KConst
				imm := rng.Int63()
				*tab.at(r) = regSlot{stamp: tab.epoch, hasConst: true, imm: imm}
				consts[r] = imm
				delete(cur, r)
			case 2: // a constant materialized: it keeps being a constant
				if _, ok := consts[r]; ok {
					v := srcVal(isa.InstrID(rng.Intn(1000)))
					e := tab.at(r)
					e.hasVal, e.val = true, v
					cur[r] = v
				}
			}
			q := reg()
			gotV, gotOK := tab.val(q)
			wantV, wantOK := cur[q]
			gotC, gotCOK := tab.constant(q)
			wantC, wantCOK := consts[q]
			if gotV != wantV || gotOK != wantOK || gotC != wantC || gotCOK != wantCOK {
				t.Fatalf("pass %d op %d: r%d: table says (%v %v, %d %v), maps say (%v %v, %d %v)",
					pass, op, q, gotV, gotOK, gotC, gotCOK, wantV, wantOK, wantC, wantCOK)
			}
		}
	}
}

// TestNetForNumbersNetsInRequestOrder: the dense net index finds the same
// net as the (block, register) map it replaced and numbers nets in the order
// they are first asked for, which is the order resolveNets attaches their
// ports in. The nets an earlier function left in the buffer come back
// empty.
func TestNetForNumbersNetsInRequestOrder(t *testing.T) {
	type netKey struct {
		block int
		reg   cfgir.Reg
	}
	rng := rand.New(rand.NewSource(2))
	const blocks, regs = 9, 150
	fc := &funcCompiler{liveIn: make([]cfgir.RegSet, blocks), netBase: make([]int, blocks+1)}
	var keys []netKey
	for b := range fc.liveIn {
		fc.liveIn[b] = cfgir.NewRegSet(regs)
		for r := cfgir.Reg(0); r < regs; r++ {
			if rng.Intn(3) == 0 || r == 63 || r == 64 {
				fc.liveIn[b].Add(r)
				keys = append(keys, netKey{b, r})
			}
		}
		keys = append(keys, netKey{b, triggerReg})
		fc.netBase[b+1] = fc.netBase[b] + fc.liveIn[b].Count() + 1
	}
	fc.netID = make([]int32, fc.netBase[blocks])
	for i := range fc.netID {
		fc.netID[i] = -1
	}
	used := net{ports: []isa.Dest{{Instr: 7}}, outs: []int{3}, sources: []srcRef{{id: 2}}, closed: true, closure: []isa.Dest{{Instr: 7}}}
	fc.nets = []net{used, used, used}[:0]
	ref := make(map[netKey]int)
	for i := 0; i < 4*len(keys); i++ {
		k := keys[rng.Intn(len(keys))]
		want, ok := ref[k]
		if !ok {
			want = len(ref)
			ref[k] = want
		}
		if got := fc.netFor(k.block, k.reg); got != want {
			t.Fatalf("netFor(b%d, r%d) = %d, the map numbers it %d", k.block, k.reg, got, want)
		}
	}
	if len(fc.nets) != len(ref) {
		t.Errorf("%d nets made, %d distinct keys asked for", len(fc.nets), len(ref))
	}
	for i, n := range fc.nets {
		if len(n.ports)+len(n.outs)+len(n.sources)+len(n.closure) > 0 || n.closed {
			t.Fatalf("net %d starts as %+v", i, n)
		}
	}
}

// TestEmittedArraysExact: a function is emitted into a buffer reused across
// one Compile and copied out at its exact size — on the kernels in both
// control modes no instruction, edge or note array has spare capacity.
func TestEmittedArraysExact(t *testing.T) {
	for _, name := range workloads.Names() {
		for _, opts := range []Options{{}, {IfConvert: true}} {
			wp, err := Compile(mustIR(t, name), opts)
			if err != nil {
				t.Fatal(err)
			}
			for fi := range wp.Funcs {
				f := &wp.Funcs[fi]
				if cap(f.Instrs) != len(f.Instrs) || cap(f.Dests) != len(f.Dests) || cap(f.Comments) != len(f.Comments) {
					t.Errorf("%s %+v: %s: instructions %d of %d, edges %d of %d, notes %d of %d", name, opts, f.Name,
						len(f.Instrs), cap(f.Instrs), len(f.Dests), cap(f.Dests), len(f.Comments), cap(f.Comments))
				}
			}
		}
	}
}

// TestFanoutOverflowIsAnError: a side with more destinations than its count
// field holds fails the function rather than wrapping.
func TestFanoutOverflowIsAnError(t *testing.T) {
	b := &emitBuf{instrs: make([]isa.Instruction, 2)}
	for range isa.MaxFanout {
		b.edges = append(b.edges, edge{key: 1, d: isa.Dest{Instr: 1}})
	}
	var f isa.Function
	if err := b.layout(&f); err != nil {
		t.Fatalf("%d false-side destinations: %v", isa.MaxFanout, err)
	}
	if d, df := f.Out(&f.Instrs[0]); len(d) != 0 || len(df) != isa.MaxFanout {
		t.Fatalf("laid out %d / %d destinations", len(d), len(df))
	}
	b.edges = append(b.edges, edge{key: 1, d: isa.Dest{Instr: 1}})
	err := b.layout(&f)
	if err == nil || !strings.Contains(err.Error(), "i0 has 65536 destinations on one side") {
		t.Fatalf("%d false-side destinations: got %v", isa.MaxFanout+1, err)
	}
}
