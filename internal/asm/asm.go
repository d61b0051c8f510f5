// Package asm defines the textual WaveScalar assembly format: a readable,
// round-trippable serialization of isa.Program used by the compiler CLI,
// the examples, and anyone who wants to write dataflow graphs by hand.
//
// Format sketch:
//
//	memwords 1024
//	global a 0 10 init 1 2 3
//	func main touches numwaves=3
//	  params i0
//	  i0: nop wave=0 D[i1.0] ; pad 0
//	  i1: const imm=42 wave=0 D[i2.1]
//	  i2: steer wave=0 T[i3.0] F[i4.0]
//	  i3: load mem=load,0,^,1 wave=1 D[i5.0]
//	  i4: new-ctx target=f:9 mem=call,1,0,$ wave=1 D[i6.0]
//	  i5: return mem=end,2,1,$ wave=1
//
// Sequence sentinels render as '^' (start), '$' (end), and '?' (wildcard).
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"wavescalar/internal/isa"
)

// Print renders a program as assembly text.
func Print(p *isa.Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "memwords %d\n", p.MemWords)
	for _, g := range p.Globals {
		fmt.Fprintf(&b, "global %s %d %d", g.Name, g.Addr, g.Size)
		if len(g.Init) > 0 {
			b.WriteString(" init")
			for _, v := range g.Init {
				fmt.Fprintf(&b, " %d", v)
			}
		}
		b.WriteByte('\n')
	}
	for fi := range p.Funcs {
		f := &p.Funcs[fi]
		fmt.Fprintf(&b, "func %s", f.Name)
		if isa.FuncID(fi) == p.Entry {
			b.WriteString(" entry")
		}
		if f.TouchesMemory {
			b.WriteString(" touches")
		}
		fmt.Fprintf(&b, " numwaves=%d\n", f.NumWaves)
		b.WriteString("  params")
		for _, pad := range f.Params {
			fmt.Fprintf(&b, " i%d", pad)
		}
		b.WriteByte('\n')
		for ii := range f.Instrs {
			printInstr(&b, p, f, isa.InstrID(ii))
		}
	}
	return b.String()
}

func printInstr(b *strings.Builder, p *isa.Program, f *isa.Function, id isa.InstrID) {
	in := &f.Instrs[id]
	dests, destsFalse := f.Out(in)
	fmt.Fprintf(b, "  i%d: %s", id, in.Op)
	if in.Op == isa.OpConst {
		fmt.Fprintf(b, " imm=%d", in.Imm)
	}
	for p := 0; p < 3; p++ {
		if in.ImmMask&(1<<p) != 0 {
			fmt.Fprintf(b, " imm%d=%d", p, in.ImmVals[p])
		}
	}
	if in.Op == isa.OpSendArg || in.Op == isa.OpNewCtx {
		fmt.Fprintf(b, " target=%s:%d", p.Funcs[in.Target].Name, in.TargetPad)
	}
	if in.Mem.Kind != isa.MemNone {
		fmt.Fprintf(b, " mem=%s,%s,%s,%s", in.Mem.Kind,
			isa.SeqString(in.Mem.Seq), isa.SeqString(in.Mem.Pred), isa.SeqString(in.Mem.Succ))
	}
	fmt.Fprintf(b, " wave=%d", in.Wave)
	if in.Op == isa.OpSteer {
		fmt.Fprintf(b, " T%s F%s", destsText(dests), destsText(destsFalse))
	} else if len(dests) > 0 {
		fmt.Fprintf(b, " D%s", destsText(dests))
	}
	if note := f.Comment(id); note != "" {
		fmt.Fprintf(b, " ; %s", note)
	}
	b.WriteByte('\n')
}

func destsText(ds []isa.Dest) string {
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = fmt.Sprintf("i%d.%d", d.Instr, d.Port)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

var opByName = func() map[string]isa.Opcode {
	m := make(map[string]isa.Opcode)
	for op := isa.Opcode(0); ; op++ {
		name := op.String()
		if strings.HasPrefix(name, "opcode(") {
			break
		}
		m[name] = op
	}
	return m
}()

var memKindByName = func() map[string]isa.MemKind {
	m := make(map[string]isa.MemKind)
	for k := isa.MemLoad; k <= isa.MemEnd; k++ {
		m[k.String()] = k
	}
	return m
}()

// Parse reads assembly text back into a program and validates it.
func Parse(text string) (*isa.Program, error) {
	p := &isa.Program{Entry: isa.NoFunc}
	var cur *isa.Function
	// Call targets are by name; resolve after all functions are read.
	type fixup struct {
		fn    int
		instr int
		name  string
	}
	var fixups []fixup

	lines := strings.Split(text, "\n")
	for ln, raw := range lines {
		line := raw
		comment := ""
		if i := strings.Index(line, ";"); i >= 0 {
			comment = strings.TrimSpace(line[i+1:])
			line = line[:i]
		}
		// Destination lists contain spaces; pull them out before field
		// splitting.
		attrs, dests, derr := splitDestGroups(line)
		if derr != nil {
			return nil, fmt.Errorf("asm: line %d: %v", ln+1, derr)
		}
		fields := strings.Fields(attrs)
		if len(fields) == 0 {
			continue
		}
		fail := func(format string, args ...any) error {
			return fmt.Errorf("asm: line %d: %s", ln+1, fmt.Sprintf(format, args...))
		}
		switch fields[0] {
		case "memwords":
			if len(fields) != 2 {
				return nil, fail("memwords wants one argument")
			}
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return nil, fail("bad memwords: %v", err)
			}
			p.MemWords = v
		case "global":
			if len(fields) < 4 {
				return nil, fail("global wants name, addr, size")
			}
			g := isa.Global{Name: fields[1]}
			var err error
			if g.Addr, err = strconv.ParseInt(fields[2], 10, 64); err != nil {
				return nil, fail("bad addr: %v", err)
			}
			if g.Size, err = strconv.ParseInt(fields[3], 10, 64); err != nil {
				return nil, fail("bad size: %v", err)
			}
			if len(fields) > 4 {
				if fields[4] != "init" {
					return nil, fail("expected 'init', got %q", fields[4])
				}
				for _, fv := range fields[5:] {
					v, err := strconv.ParseInt(fv, 10, 64)
					if err != nil {
						return nil, fail("bad init value %q", fv)
					}
					g.Init = append(g.Init, v)
				}
			}
			p.Globals = append(p.Globals, g)
		case "func":
			if len(fields) < 2 {
				return nil, fail("func wants a name")
			}
			p.Funcs = append(p.Funcs, isa.Function{Name: fields[1]})
			cur = &p.Funcs[len(p.Funcs)-1]
			for _, f := range fields[2:] {
				switch {
				case f == "entry":
					p.Entry = isa.FuncID(len(p.Funcs) - 1)
				case f == "touches":
					cur.TouchesMemory = true
				case strings.HasPrefix(f, "numwaves="):
					v, err := strconv.ParseInt(f[len("numwaves="):], 10, 32)
					if err != nil {
						return nil, fail("bad numwaves: %v", err)
					}
					cur.NumWaves = int32(v)
				default:
					return nil, fail("unknown func attribute %q", f)
				}
			}
		case "params":
			if cur == nil {
				return nil, fail("params outside a function")
			}
			for _, f := range fields[1:] {
				id, err := parseInstrID(f)
				if err != nil {
					return nil, fail("bad param pad %q", f)
				}
				cur.Params = append(cur.Params, id)
			}
		default:
			if cur == nil {
				return nil, fail("instruction outside a function")
			}
			// "iN:" opcode attrs...
			if !strings.HasSuffix(fields[0], ":") {
				return nil, fail("expected instruction label, got %q", fields[0])
			}
			id, err := parseInstrID(strings.TrimSuffix(fields[0], ":"))
			if err != nil {
				return nil, fail("bad label %q", fields[0])
			}
			if int(id) != len(cur.Instrs) {
				return nil, fail("label i%d out of order (expected i%d)", id, len(cur.Instrs))
			}
			if len(fields) < 2 {
				return nil, fail("missing opcode")
			}
			op, ok := opByName[fields[1]]
			if !ok {
				return nil, fail("unknown opcode %q", fields[1])
			}
			in := isa.Instruction{Op: op, Target: isa.NoFunc}
			for _, f := range fields[2:] {
				switch {
				case strings.HasPrefix(f, "imm0="), strings.HasPrefix(f, "imm1="), strings.HasPrefix(f, "imm2="):
					port := f[3] - '0'
					v, err := strconv.ParseInt(f[5:], 10, 64)
					if err != nil {
						return nil, fail("bad port immediate: %v", err)
					}
					in.ImmMask |= 1 << port
					in.ImmVals[port] = v
				case strings.HasPrefix(f, "imm="):
					v, err := strconv.ParseInt(f[4:], 10, 64)
					if err != nil {
						return nil, fail("bad imm: %v", err)
					}
					in.Imm = v
				case strings.HasPrefix(f, "wave="):
					v, err := strconv.ParseInt(f[5:], 10, 32)
					if err != nil {
						return nil, fail("bad wave: %v", err)
					}
					in.Wave = int32(v)
				case strings.HasPrefix(f, "target="):
					spec := f[7:]
					colon := strings.LastIndex(spec, ":")
					if colon < 0 {
						return nil, fail("target wants name:pad")
					}
					pad, err := strconv.ParseInt(spec[colon+1:], 10, 32)
					if err != nil {
						return nil, fail("bad target pad: %v", err)
					}
					in.TargetPad = int32(pad)
					fixups = append(fixups, fixup{fn: len(p.Funcs) - 1, instr: len(cur.Instrs), name: spec[:colon]})
				case strings.HasPrefix(f, "mem="):
					parts := strings.Split(f[4:], ",")
					if len(parts) != 4 {
						return nil, fail("mem wants kind,seq,pred,succ")
					}
					kind, ok := memKindByName[parts[0]]
					if !ok {
						return nil, fail("unknown mem kind %q", parts[0])
					}
					seq, err1 := parseSeq(parts[1])
					pred, err2 := parseSeq(parts[2])
					succ, err3 := parseSeq(parts[3])
					if err1 != nil || err2 != nil || err3 != nil {
						return nil, fail("bad mem sequence numbers in %q", f)
					}
					in.Mem = isa.MemOrder{Kind: kind, Seq: seq, Pred: pred, Succ: succ}
				default:
					return nil, fail("unknown attribute %q", f)
				}
			}
			out, outFalse := dests["D"], []isa.Dest(nil)
			if op == isa.OpSteer {
				out, outFalse = dests["T"], dests["F"]
			}
			if len(out) > isa.MaxFanout || len(outFalse) > isa.MaxFanout {
				return nil, fail("more than %d destinations in one list", isa.MaxFanout)
			}
			cur.Add(in, out, outFalse, comment)
		}
	}
	for _, fx := range fixups {
		found := isa.NoFunc
		for i := range p.Funcs {
			if p.Funcs[i].Name == fx.name {
				found = isa.FuncID(i)
				break
			}
		}
		if found == isa.NoFunc {
			return nil, fmt.Errorf("asm: unknown call target %q", fx.name)
		}
		p.Funcs[fx.fn].Instrs[fx.instr].Target = found
	}
	if p.Entry == isa.NoFunc {
		for i := range p.Funcs {
			if p.Funcs[i].Name == "main" {
				p.Entry = isa.FuncID(i)
				break
			}
		}
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("asm: parsed program invalid: %w", err)
	}
	return p, nil
}

func parseInstrID(s string) (isa.InstrID, error) {
	if !strings.HasPrefix(s, "i") {
		return 0, fmt.Errorf("want iN, got %q", s)
	}
	v, err := strconv.ParseInt(s[1:], 10, 32)
	if err != nil {
		return 0, err
	}
	return isa.InstrID(v), nil
}

func parseSeq(s string) (int32, error) {
	for _, sentinel := range []int32{isa.SeqWildcard, isa.SeqStart, isa.SeqEnd} {
		if s == isa.SeqString(sentinel) {
			return sentinel, nil
		}
	}
	v, err := strconv.ParseInt(s, 10, 32)
	return int32(v), err
}

// splitDestGroups removes the D[...], T[...], F[...] groups from a line,
// returning the remaining attribute text and the parsed lists keyed by
// group letter.
func splitDestGroups(line string) (string, map[string][]isa.Dest, error) {
	dests := make(map[string][]isa.Dest)
	var rest strings.Builder
	for i := 0; i < len(line); {
		if i+1 < len(line) && line[i+1] == '[' &&
			(line[i] == 'D' || line[i] == 'T' || line[i] == 'F') &&
			(i == 0 || line[i-1] == ' ' || line[i-1] == '\t') {
			j := strings.IndexByte(line[i:], ']')
			if j < 0 {
				return "", nil, fmt.Errorf("unterminated %c[ list", line[i])
			}
			lst, err := parseDestList(line[i+2 : i+j])
			if err != nil {
				return "", nil, err
			}
			dests[string(line[i])] = lst
			i += j + 1
			continue
		}
		rest.WriteByte(line[i])
		i++
	}
	return rest.String(), dests, nil
}

func parseDestList(body string) ([]isa.Dest, error) {
	var out []isa.Dest
	for _, tok := range strings.Fields(body) {
		dot := strings.LastIndex(tok, ".")
		if dot < 0 {
			return nil, fmt.Errorf("bad destination %q", tok)
		}
		id, err := parseInstrID(tok[:dot])
		if err != nil {
			return nil, fmt.Errorf("bad destination %q: %v", tok, err)
		}
		port, err := strconv.ParseInt(tok[dot+1:], 10, 8)
		if err != nil {
			return nil, fmt.Errorf("bad destination port %q", tok)
		}
		out = append(out, isa.Dest{Instr: id, Port: uint8(port)})
	}
	return out, nil
}
