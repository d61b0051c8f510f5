package testprogs

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// This file grows the toy statement generator (generate.go) into a seeded
// corpus of workload *families*: structured program shapes that stress the
// memory system and control machinery of the simulated WaveCache in
// distinct, tunable ways. Every family emits valid wsl source with
// statically bounded loop trip counts and recursion depths, so every
// generated program terminates by construction — the property the
// corpus-scale differential sweeps (harness.RunCorpus, FuzzDifferential)
// rely on. A CorpusSpec reproduces any program bit-for-bit.

// CorpusSpec identifies one generated program: a family, the seed that
// drives every random choice inside it, and a size knob scaling trip
// counts. Generation is a pure function of the spec, so a spec is a
// complete, content-addressable name for its program.
type CorpusSpec struct {
	Family string `json:"family"`
	Seed   int64  `json:"seed"`
	// Size scales dynamic work (1 = default; clamped to [1, 4]).
	Size int `json:"size"`
}

// Name renders the spec as a workload name, "gen:family:seed[:size]"
// (size omitted when 1). workloads.ByName understands these names and
// synthesizes the workload on demand.
func (s CorpusSpec) Name() string {
	if s.size() != 1 {
		return fmt.Sprintf("gen:%s:%d:%d", s.Family, s.Seed, s.size())
	}
	return fmt.Sprintf("gen:%s:%d", s.Family, s.Seed)
}

func (s CorpusSpec) size() int {
	switch {
	case s.Size < 1:
		return 1
	case s.Size > 4:
		return 4
	}
	return s.Size
}

// ParseSpecName parses a "gen:family:seed[:size]" name back into a spec.
func ParseSpecName(name string) (CorpusSpec, bool) {
	parts := strings.Split(name, ":")
	if len(parts) < 3 || len(parts) > 4 || parts[0] != "gen" {
		return CorpusSpec{}, false
	}
	if !isFamily(parts[1]) {
		return CorpusSpec{}, false
	}
	seed, err := strconv.ParseInt(parts[2], 10, 64)
	if err != nil {
		return CorpusSpec{}, false
	}
	spec := CorpusSpec{Family: parts[1], Seed: seed, Size: 1}
	if len(parts) == 4 {
		size, err := strconv.Atoi(parts[3])
		if err != nil || size < 1 || size > 4 {
			return CorpusSpec{}, false
		}
		spec.Size = size
	}
	return spec, true
}

// families is ordered; CorpusSpecs round-robins it, so order is part of
// the reproducibility contract.
var families = []string{"pointer", "recursion", "pipeline", "contention", "mixed"}

// Families lists the workload family names in their round-robin order.
func Families() []string {
	out := make([]string, len(families))
	copy(out, families)
	return out
}

func isFamily(name string) bool {
	for _, f := range families {
		if f == name {
			return true
		}
	}
	return false
}

// CorpusSpecs derives n reproducible specs from a base seed, round-robin
// across the families so every prefix of the corpus is family-balanced
// (shard k/n slicing stays balanced too).
func CorpusSpecs(n int, baseSeed int64) []CorpusSpec {
	out := make([]CorpusSpec, n)
	for i := range out {
		out[i] = CorpusSpec{
			Family: families[i%len(families)],
			Seed:   mixSeed(baseSeed, int64(i)),
			Size:   1,
		}
	}
	return out
}

// mixSeed is a splitmix64-style hash: spec seeds must decorrelate from
// consecutive corpus indexes, or every family would see near-identical
// programs along the sweep.
func mixSeed(parts ...int64) int64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, p := range parts {
		x := uint64(p) ^ h
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		h = x + 0x9e3779b97f4a7c15
	}
	return int64(h &^ (1 << 63))
}

// GenerateSpec produces the program a spec names. It is deterministic:
// the same spec yields byte-identical source forever (the corpus cache
// and fuzz seed corpus depend on this).
func GenerateSpec(s CorpusSpec) (string, error) {
	var famHash int64
	for _, ch := range s.Family {
		famHash = famHash*131 + int64(ch)
	}
	r := rand.New(rand.NewSource(mixSeed(s.Seed, famHash)))
	size := s.size()
	switch s.Family {
	case "pointer":
		return genPointer(r, size), nil
	case "recursion":
		return genRecursion(r, size), nil
	case "pipeline":
		return genPipeline(r, size), nil
	case "contention":
		return genContention(r, size), nil
	case "mixed":
		return genMixed(r, size), nil
	}
	return "", fmt.Errorf("testprogs: unknown corpus family %q", s.Family)
}

// genPointer emits irregular pointer-chasing over memory: a scrambled
// next[] graph walked with data-dependent loads (and occasional stores
// back into the chase path) that defeat any static memory-ordering
// shortcut — every load depends on the previous one.
func genPointer(r *rand.Rand, size int) string {
	n := 8 + r.Intn(25) // nodes
	steps := (20 + r.Intn(60)) * size
	a := 2*r.Intn(16) + 3 // odd stride keeps the graph well mixed
	b := r.Intn(n)
	c := 3 + r.Intn(29)
	m := 64 + r.Intn(448)
	mask := []int{1, 3, 7}[r.Intn(3)]
	twoChains := r.Intn(2) == 0

	var sb strings.Builder
	fmt.Fprintf(&sb, "global next[%d];\nglobal val[%d];\n\n", n, n)
	sb.WriteString("func main() {\n")
	fmt.Fprintf(&sb, "\tfor var i = 0; i < %d; i = i + 1 {\n", n)
	fmt.Fprintf(&sb, "\t\tnext[i] = (i * %d + %d) %% %d;\n", a, b, n)
	fmt.Fprintf(&sb, "\t\tval[i] = (i * %d + %d) %% %d;\n", c, r.Intn(m), m)
	sb.WriteString("\t}\n")
	fmt.Fprintf(&sb, "\tvar p = %d;\n", r.Intn(n))
	if twoChains {
		fmt.Fprintf(&sb, "\tvar q = %d;\n", r.Intn(n))
	}
	sb.WriteString("\tvar s = 0;\n")
	fmt.Fprintf(&sb, "\tfor var i = 0; i < %d; i = i + 1 {\n", steps)
	sb.WriteString("\t\ts = s + val[p];\n")
	fmt.Fprintf(&sb, "\t\tif (s & %d) == 0 { val[p] = (s + i) %% %d; }\n", mask, m)
	sb.WriteString("\t\tp = next[p];\n")
	if twoChains {
		sb.WriteString("\t\ts = s + val[q] * 3;\n")
		sb.WriteString("\t\tq = next[next[q]];\n")
	}
	sb.WriteString("\t}\n")
	fmt.Fprintf(&sb, "\tfor var i = 0; i < %d; i = i + 1 { s = s * 31 + val[i]; }\n", n)
	sb.WriteString("\treturn s;\n}\n")
	return sb.String()
}

// genRecursion emits deep, tree, or mutual recursion — call-heavy
// workloads where each frame may touch shared memory, stressing the
// wave-ordered store path across call boundaries. Depths are static.
func genRecursion(r *rand.Rand, size int) string {
	var sb strings.Builder
	switch r.Intn(3) {
	case 0: // deep linear recursion threading an accumulator through memory
		d := 4 + r.Intn(8)
		depth := (8 + r.Intn(25)) * size
		k := 1 + r.Intn(9)
		j := 1 + r.Intn(7)
		fmt.Fprintf(&sb, "global trail[%d];\n\n", d)
		sb.WriteString("func down(n, acc) {\n\tif n <= 0 { return acc; }\n")
		fmt.Fprintf(&sb, "\ttrail[n %% %d] = (acc + n) %% 1000;\n", d)
		fmt.Fprintf(&sb, "\treturn down(n - 1, acc + n * %d + trail[(n * %d) %% %d]);\n}\n\n", k, j, d)
		sb.WriteString("func main() {\n")
		fmt.Fprintf(&sb, "\tvar s = down(%d, %d);\n", depth, r.Intn(50))
		fmt.Fprintf(&sb, "\tfor var i = 0; i < %d; i = i + 1 { s = s * 31 + trail[i]; }\n", d)
		sb.WriteString("\treturn s;\n}\n")
	case 1: // mutual recursion with distinct per-parity arithmetic
		depth := (6 + r.Intn(20)) * size
		e := 1 + r.Intn(9)
		o := 1 + r.Intn(9)
		mod := 1009 + r.Intn(99000)
		fmt.Fprintf(&sb, "func even(n, acc) {\n\tif n <= 0 { return acc; }\n\treturn odd(n - 1, acc + %d);\n}\n\n", e)
		fmt.Fprintf(&sb, "func odd(n, acc) {\n\tif n <= 0 { return acc + 1; }\n\treturn even(n - 1, (acc * 3) %% %d + %d);\n}\n\n", mod, o)
		sb.WriteString("func main() {\n")
		fmt.Fprintf(&sb, "\treturn even(%d, %d) * 100 + odd(%d, %d);\n}\n",
			depth, r.Intn(20), 5+r.Intn(15)*size, r.Intn(20))
	default: // tree recursion with a global side-effect counter
		n := 5 + r.Intn(5) + size // fib-like: keep the call tree modest
		if n > 11 {
			n = 11
		}
		w := r.Intn(5)
		fmt.Fprintf(&sb, "global cnt;\n\n")
		sb.WriteString("func tree(n) {\n\tcnt = cnt + 1;\n")
		fmt.Fprintf(&sb, "\tif n < 2 { return n + %d; }\n", w)
		fmt.Fprintf(&sb, "\treturn tree(n - 1) + tree(n - 2) * %d;\n}\n\n", 1+r.Intn(3))
		sb.WriteString("func main() {\n")
		fmt.Fprintf(&sb, "\treturn tree(%d) * 1000 + cnt;\n}\n", n)
	}
	return sb.String()
}

// genPipeline emits a producer/consumer pipeline: an LCG producer fills a
// buffer, a randomized chain of transform stages maps buffer to buffer
// (each with its own stride and operator), and a filtering consumer
// reduces — with the accumulator fed back into the next round's producer
// so the rounds serialize through memory.
func genPipeline(r *rand.Rand, size int) string {
	n := 8 + r.Intn(17)
	stages := 1 + r.Intn(3)
	rounds := (1 + r.Intn(3)) * size
	m := 128 + r.Intn(896)
	ops := []string{"+", "-", "^", "|", "&"}

	var sb strings.Builder
	for s := 0; s <= stages; s++ {
		fmt.Fprintf(&sb, "global q%d[%d];\n", s, n)
	}
	sb.WriteString("\nfunc main() {\n")
	fmt.Fprintf(&sb, "\tvar seed = %d;\n", 1+r.Intn(1000))
	sb.WriteString("\tvar s = 0;\n")
	fmt.Fprintf(&sb, "\tfor var round = 0; round < %d; round = round + 1 {\n", rounds)
	fmt.Fprintf(&sb, "\t\tfor var i = 0; i < %d; i = i + 1 {\n", n)
	sb.WriteString("\t\t\tseed = (seed * 48271 + round) % 2147483647;\n")
	fmt.Fprintf(&sb, "\t\t\tq0[i] = seed %% %d;\n", m)
	sb.WriteString("\t\t}\n")
	for st := 1; st <= stages; st++ {
		off := 1 + r.Intn(n-1)
		op := ops[r.Intn(len(ops))]
		c := r.Intn(64)
		fmt.Fprintf(&sb, "\t\tfor var i = 0; i < %d; i = i + 1 {\n", n)
		fmt.Fprintf(&sb, "\t\t\tq%d[i] = (q%d[i] %s q%d[(i + %d) %% %d]) + %d;\n",
			st, st-1, op, st-1, off, n, c)
		sb.WriteString("\t\t}\n")
	}
	fm := 2 + r.Intn(5)
	fmt.Fprintf(&sb, "\t\tfor var i = 0; i < %d; i = i + 1 {\n", n)
	fmt.Fprintf(&sb, "\t\t\tvar x = q%d[i];\n", stages)
	fmt.Fprintf(&sb, "\t\t\tif ((x %% %d) + %d) %% %d == %d { s = s + x; } else { s = s * 3 + 1; }\n",
		fm, fm, fm, r.Intn(fm))
	sb.WriteString("\t\t}\n")
	sb.WriteString("\t\tseed = (seed + (s % 65536) + 65536) % 2147483647;\n")
	sb.WriteString("\t}\n")
	sb.WriteString("\treturn s;\n}\n")
	return sb.String()
}

// genContention emits a memory-contention stressor: a handful of hot
// cells hammered with read-modify-write updates from a helper function
// and from conditional stores in the main loop, plus a log array whose
// writes interleave with the hot traffic — a worst case for the
// wave-ordered store buffers.
func genContention(r *rand.Rand, size int) string {
	h := 2 + r.Intn(7)  // hot set size
	l := 4 + r.Intn(13) // log size
	steps := (16 + r.Intn(48)) * size
	a := 1 + r.Intn(7)
	k := r.Intn(64)
	m := 128 + r.Intn(384)

	var sb strings.Builder
	fmt.Fprintf(&sb, "global hot[%d];\nglobal log[%d];\n\n", h, l)
	fmt.Fprintf(&sb, "func bump(i, v) {\n\thot[i] = hot[i] + v;\n\treturn hot[(i + 1) %% %d];\n}\n\n", h)
	sb.WriteString("func main() {\n\tvar s = 0;\n")
	fmt.Fprintf(&sb, "\tfor var i = 0; i < %d; i = i + 1 {\n", steps)
	fmt.Fprintf(&sb, "\t\tvar x = bump((i * %d) %% %d, (i ^ %d) %% 64);\n", a, h, k)
	sb.WriteString("\t\ts = s + x;\n")
	fmt.Fprintf(&sb, "\t\tif x & 1 { hot[((x %% %d) + %d) %% %d] = ((s + i) %% %d + %d) %% %d; }\n",
		h, h, h, m, m, m)
	fmt.Fprintf(&sb, "\t\tlog[i %% %d] = ((s %% 256) + 256) %% 256;\n", l)
	sb.WriteString("\t}\n")
	fmt.Fprintf(&sb, "\tfor var i = 0; i < %d; i = i + 1 { s = s * 17 + hot[i]; }\n", h)
	fmt.Fprintf(&sb, "\tfor var i = 0; i < %d; i = i + 1 { s = s + log[i]; }\n", l)
	sb.WriteString("\treturn s;\n}\n")
	return sb.String()
}

// mixedStepBudget bounds the evaluator steps a mixed-family program may
// take; generation rejection-samples against it so corpus sweeps never
// pick up a seed whose nested loops compound into an impractically long
// simulation.
const mixedStepBudget = 300_000

// genMixed wraps the free-form statement generator (generate.go) as a
// corpus family. Unlike the structured families its loop nesting can
// compound, so it rejection-samples deterministically: derived seeds are
// tried in order until one terminates within the step budget, falling
// back to a pointer-chase program if none does (never observed, but the
// family must be total).
func genMixed(r *rand.Rand, size int) string {
	base := r.Int63()
	for attempt := int64(0); attempt < 16; attempt++ {
		src := GenerateWith(mixSeed(base, attempt), 3+size)
		if TerminatesWithin(src, mixedStepBudget) {
			return src
		}
	}
	return genPointer(rand.New(rand.NewSource(base)), size)
}
