package asm

import (
	"fmt"
	"strings"

	"wavescalar/internal/isa"
)

// Dot renders a function's dataflow graph in GraphViz format: one node per
// instruction (clustered by static wave), solid edges for data flow, dashed
// edges for steer false paths, and memory annotations in the labels. Pipe
// the output through `dot -Tsvg` to see the graph the WaveCache executes.
func Dot(p *isa.Program, fn isa.FuncID) string {
	f := &p.Funcs[fn]
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", f.Name)
	b.WriteString("  rankdir=TB;\n  node [shape=box, fontname=\"monospace\", fontsize=10];\n")

	// Group instructions by wave into subgraph clusters.
	byWave := make(map[int32][]isa.InstrID)
	for ii := range f.Instrs {
		w := f.Instrs[ii].Wave
		byWave[w] = append(byWave[w], isa.InstrID(ii))
	}
	for w := int32(0); w < f.NumWaves || (f.NumWaves == 0 && w == 0); w++ {
		ids := byWave[w]
		if len(ids) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  subgraph cluster_wave%d {\n    label=\"wave %d\";\n    style=dotted;\n", w, w)
		for _, id := range ids {
			in := &f.Instrs[id]
			label := fmt.Sprintf("i%d: %s", id, in.Op)
			if in.Op == isa.OpConst {
				label += fmt.Sprintf(" %d", in.Imm)
			}
			for pt := 0; pt < 3; pt++ {
				if in.ImmMask&(1<<pt) != 0 {
					label += fmt.Sprintf("\\n#%d=%d", pt, in.ImmVals[pt])
				}
			}
			if in.Mem.Kind != isa.MemNone {
				label += "\\n" + strings.ReplaceAll(in.Mem.String(), "\"", "")
			}
			if in.Op == isa.OpSendArg || in.Op == isa.OpNewCtx {
				label += fmt.Sprintf("\\n-> %s", p.Funcs[in.Target].Name)
			}
			shape := ""
			switch {
			case in.Op == isa.OpSteer || in.Op == isa.OpSelect:
				shape = ", shape=diamond"
			case in.Mem.Kind != isa.MemNone:
				shape = ", style=filled, fillcolor=lightgrey"
			case in.Op == isa.OpWaveAdvance:
				shape = ", shape=cds"
			}
			fmt.Fprintf(&b, "    i%d [label=\"%s\"%s];\n", id, label, shape)
		}
		b.WriteString("  }\n")
	}

	for ii := range f.Instrs {
		dests, destsFalse := f.Out(&f.Instrs[ii])
		for _, d := range dests {
			fmt.Fprintf(&b, "  i%d -> i%d [headlabel=\"%d\"];\n", ii, d.Instr, d.Port)
		}
		for _, d := range destsFalse {
			fmt.Fprintf(&b, "  i%d -> i%d [style=dashed, headlabel=\"%d\"];\n", ii, d.Instr, d.Port)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
