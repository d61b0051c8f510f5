package harness

import (
	"fmt"
	"testing"

	"wavescalar/internal/cfgir"
	"wavescalar/internal/linear"
	"wavescalar/internal/workloads"
)

// reReads is the most a loop-carried scalar replacement tier (the parked
// O2 tier) could take out of one program's -O1 build, read from its linear
// trace. An iteration ends at every taken branch or jump to a lower PC.
type reReads struct {
	memOps int64 // dynamic loads and stores
	loads  int64
	// same and prev count the loads whose address was last loaded or
	// stored in the same iteration or in the one before: the value could
	// have stayed in a token. Each is one slot of its wave's memory chain.
	same, prev int64
	// nops counts the re-reads that are the only chain slot of their block:
	// removing one leaves a MEMORY-NOP in that slot, so the chain does not
	// shrink.
	nops  int64
	iters int64
}

// measureReReads builds src at unroll 4 and -O1, the IR the linear program
// is lowered from, and runs the linear program under a trace. Each PC is
// mapped back to its IR block by replaying linear.Compile's layout, which
// the instruction count checks.
func measureReReads(src string) (r reReads, err error) {
	p, _, _, err := cfgir.FromSource(src, 4, 1)
	if err != nil {
		return r, err
	}
	lp, err := linear.Compile(p)
	if err != nil {
		return r, err
	}
	touches := p.MemTouches()
	slots := make([][]int32, len(p.Funcs)) // by function and PC: the chain slots of the PC's block
	for fi, f := range p.Funcs {
		for bi, b := range f.Blocks {
			n := int32(0)
			for i := range b.Instrs {
				switch in := &b.Instrs[i]; in.Kind {
				case cfgir.KLoad, cfgir.KStore:
					n++
				case cfgir.KCall:
					if touches[in.Callee] {
						n++
					}
				}
			}
			code := len(b.Instrs)
			switch b.Term.Kind {
			case cfgir.TRet:
				n++ // the return's MemEnd slot
				code++
			case cfgir.TJump:
				if b.Term.Then != bi+1 {
					code++
				}
			case cfgir.TBranch:
				code++
				if b.Term.Else != bi+1 {
					code++
				}
			}
			for range code {
				slots[fi] = append(slots[fi], n)
			}
		}
		if len(slots[fi]) != len(lp.Funcs[fi].Code) {
			return r, fmt.Errorf("%s: the replayed layout has %d instructions, linear.Compile emitted %d",
				f.Name, len(slots[fi]), len(lp.Funcs[fi].Code))
		}
	}

	last := make([]int64, lp.MemWords) // the iteration of each word's last access; 0 is none
	iter := int64(1)
	em := linear.NewEmulator(lp, 0)
	em.Trace = func(ev linear.TraceEvent) {
		switch in := ev.Instr; in.Op {
		case linear.LLoad:
			r.memOps++
			r.loads++
			if l := last[ev.Addr]; l != 0 && iter-l <= 1 {
				if l == iter {
					r.same++
				} else {
					r.prev++
				}
				if slots[ev.Func][ev.PC] == 1 {
					r.nops++
				}
			}
			last[ev.Addr] = iter
		case linear.LStore:
			r.memOps++
			last[ev.Addr] = iter
		case linear.LBranch, linear.LJump:
			if (in.Op == linear.LJump || ev.Taken) && in.Imm < int64(ev.PC) {
				iter++
				r.iters++
			}
		}
	}
	_, err = em.Run()
	return r, err
}

// TestO2TierBound measures ROADMAP item 12's bound on the ten kernels and
// holds it to what EXPERIMENTS.md records under E14: the loads a
// loop-carried scalar replacement tier could remove at most.
func TestO2TierBound(t *testing.T) {
	recorded := map[string]reReads{
		"adpcm":  {memOps: 6144, loads: 4096, same: 808, prev: 1294, nops: 914, iters: 512},
		"mpeg2":  {memOps: 16192, loads: 13824, same: 0, prev: 0, nops: 0, iters: 5212},
		"gzip":   {memOps: 46074, loads: 39690, same: 1791, prev: 11748, nops: 0, iters: 19401},
		"mcf":    {memOps: 29853, loads: 25746, same: 1, prev: 28, nops: 1, iters: 7758},
		"twolf":  {memOps: 289320, loads: 278932, same: 6634, prev: 12320, nops: 0, iters: 10316},
		"art":    {memOps: 83112, loads: 77928, same: 360, prev: 168, nops: 0, iters: 11160},
		"equake": {memOps: 126481, loads: 114704, same: 0, prev: 28736, nops: 28656, iters: 30736},
		"ammp":   {memOps: 38612, loads: 33620, same: 1420, prev: 2162, nops: 960, iters: 3346},
		"fft":    {memOps: 14528, loads: 9184, same: 2048, prev: 0, nops: 0, iters: 1639},
		"lu":     {memOps: 9240, loads: 6160, same: 210, prev: 4, nops: 5, iters: 1360},
	}
	for _, name := range workloads.Names() {
		r, err := measureReReads(workloads.ByName(name).Src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Logf("%-7s memops %7d loads %7d re-reads %6d same + %6d previous iteration (%5.2f%%), %6d leave a MEMORY-NOP; %6d iterations",
			name, r.memOps, r.loads, r.same, r.prev, 100*float64(r.same+r.prev)/float64(r.memOps), r.nops, r.iters)
		if r != recorded[name] {
			t.Errorf("%s: measured %+v, EXPERIMENTS.md records %+v", name, r, recorded[name])
		}
	}
}
