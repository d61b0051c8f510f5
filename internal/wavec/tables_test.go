package wavec

import (
	"math/rand"
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
// ports in.
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
	if len(fc.netArr) != len(ref) {
		t.Errorf("%d nets made, %d distinct keys asked for", len(fc.netArr), len(ref))
	}
}

// TestInstrBoundHolds: a function's instruction slice is sized once, from a
// bound computed before anything is emitted, and never regrown — on the
// kernels in both control modes the bound holds and is within half again of
// what is emitted.
func TestInstrBoundHolds(t *testing.T) {
	emitted, bound := 0, 0
	for _, name := range workloads.Names() {
		for _, opts := range []Options{{}, {IfConvert: true}} {
			p := mustIR(t, name)
			touches := p.MemTouches()
			var regs regTable
			for fi, f := range p.Funcs {
				if opts.IfConvert {
					f.IfConvert()
				}
				f.SplitCriticalEdges()
				fc := &funcCompiler{prog: p, ir: f, touches: touches, self: fi, regs: &regs}
				out, err := fc.compile()
				if err != nil {
					t.Fatal(err)
				}
				if n, b := len(out.Instrs), fc.instrBound(); n > b || cap(out.Instrs) != b {
					t.Errorf("%s: %s: emitted %d instructions into a slice of capacity %d, bound %d", name, f.Name, n, cap(out.Instrs), b)
				}
				emitted += len(out.Instrs)
				bound += fc.instrBound()
			}
		}
	}
	if 2*bound > 3*emitted {
		t.Errorf("bound %d for %d emitted instructions: more than half again", bound, emitted)
	}
	t.Logf("emitted %d instructions, bound %d", emitted, bound)
}
