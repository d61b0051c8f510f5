package harness

import (
	"cmp"
	"fmt"
	"strconv"

	"wavescalar/internal/ooo"
	"wavescalar/internal/placement"
	"wavescalar/internal/stats"
	"wavescalar/internal/wavecache"
)

// Experiments is the reconstructed MICRO 2003 evaluation and its
// extensions, one entry per table/figure (IDs match DESIGN.md and
// EXPERIMENTS.md). The order is observable — RunAll prints in it and callers
// index the slice — so TestEveryExperimentRuns pins it.
var Experiments = []Experiment{
	{
		ID:    "E1",
		Title: "WaveCache vs. superscalar vs. ideal dataflow (headline figure)",
		Claim: "the WaveCache outperforms an aggressive out-of-order superscalar, especially on memory-parallel codes; an idealized dataflow machine shows further headroom",
		Run:   runE1,
	},
	{
		ID:    "E1b",
		Title: "Memory pressure and the WaveCache/superscalar ratio",
		Claim: "the WaveCache tolerates memory latency better than a window-limited superscalar, so its relative performance improves as working sets fall out of cache",
		Run:   runE1b,
	},
	{
		ID:    "E2",
		Title: "WaveCache capacity: instructions per PE",
		Claim: "small PE instruction stores thrash (swap storms); performance saturates once the working set of instructions is resident",
		Run:   runE2,
	},
	{
		ID:    "E3",
		Title: "Grid size: number of clusters",
		Claim: "kernels saturate a small grid; extra clusters add operand latency without adding useful parallelism until working sets grow",
		Run:   runE3,
	},
	{
		ID:    "E4",
		Title: "Memory ordering: wave-ordered vs. serialized vs. oracle",
		Claim: "wave-ordered memory recovers most of an oracle memory's performance while a dependence-token serialized memory collapses — the paper's central claim",
		Run:   runE4,
	},
	{
		ID:    "E5",
		Title: "Operand network latency sensitivity",
		Claim: "performance degrades smoothly as operand latencies scale; placement locality keeps most traffic on the cheap levels",
		Run:   runE5,
	},
	{
		ID:    "E6",
		Title: "PE input queue (matching table) size",
		Claim: "undersized matching storage forces token spills and serializes bursty producers",
		Run:   runE6,
	},
	{
		ID:    "E7",
		Title: "L1 data cache size and coherence traffic",
		Claim: "per-cluster L1s capture most locality; the directory protocol's transfers track data sharing between clusters",
		Run:   runE7,
	},
	{
		ID:    "E8",
		Title: "Placement algorithms",
		Claim: "placement can swing performance severely; packing (contention) and scattering (latency) trade off, and dynamic-depth-first-snake balances both",
		Run:   runE8,
	},
	{
		ID:    "E9",
		Title: "Control: steer (φ⁻¹) vs. select (φ) compilation",
		Claim: "if-conversion to φ selects removes steers and branch-induced waves at the cost of executing both arms",
		Run:   runE9,
	},
	{
		ID:    "E10",
		Title: "Instruction swap penalty",
		Claim: "the cost of demand-swapping instructions into PE stores is visible only when stores are undersized",
		Run:   runE10,
	},
	{
		ID:    "E11",
		Title: "Loop unrolling (k-loop bounding)",
		Claim: "unrolling amortizes the dataflow loop-control chain (steer + wave-advance per iteration), helping the WaveCache more than the superscalar",
		Run:   runE11,
	},
	{
		ID:    "E12",
		Title: "Fault injection: IPC degradation vs. defect and loss rates",
		Claim: "a tiled dataflow machine degrades gracefully under faults: placement routes around dead PEs and ack/retransmit recovers lost messages, so performance falls smoothly with fault rate while results stay correct",
		Run:   runE12,
	},
	{
		ID:    "M1",
		Title: "SPAA'06 placement model: component and combined correlations",
		Claim: "a weighted sum of operand latency, migratory coherence, and PE contention predicts layout performance (paper: combined correlation -0.90; components -0.88 / -0.84 / -0.76)",
		Run:   runM1,
	},
	{
		ID:    "E14",
		Title: "Compiler memory optimization and static placement",
		Claim: "shrinking the wave-ordered memory chains at compile time improves AIPC where the tier removes operations; the static columns run depth-first-snake against the default dynamic-depth-first-snake, so they measure static against dynamic depth-first placement",
		Run:   runE14,
	},
	{
		ID:    "E15",
		Title: "MemSpec: per-wave speculation over wave-ordered memory",
		Claim: "an implicit transaction per wave (the Transactional WaveCache) lets a buffered request access memory before its wave-order predecessors resolve; where conflicts are rare the hidden latency shows as AIPC above wave-ordered issue, and a conflict costs only the replay of its wave's remaining speculations",
		Run:   runE15,
	},
}

// ExperimentByID finds an experiment.
func ExperimentByID(id string) *Experiment {
	for i := range Experiments {
		if Experiments[i].ID == id {
			return &Experiments[i]
		}
	}
	return nil
}

func runE1(set []*Compiled, m MachineOptions) (*stats.Table, error) {
	t := stats.NewTable("E1: performance (AIPC = useful instructions per cycle)",
		"bench", "useful", "ooo-ipc", "wc-aipc", "wc-raw-ipc", "ideal-aipc", "speedup")
	type row struct {
		ores       ooo.Result
		wres, ires wavecache.Result
	}
	rows := make([]row, len(set))
	cells := newCellSet(m)
	for i, c := range set {
		cells.add(c, func() (err error) {
			rows[i].ores, err = RunOoO(c, DefaultOoOConfig())
			return err
		})
		cells.wave(c, c.Wave, m, &rows[i].wres)
		cells.wave(c, c.Wave, idealMachine, &rows[i].ires)
	}
	if err := cells.run(); err != nil {
		return nil, err
	}
	var speedups, wcs, ooos []float64
	for i, c := range set {
		r := &rows[i]
		sp := float64(r.ores.Cycles) / float64(r.wres.Cycles)
		speedups = append(speedups, sp)
		wcs = append(wcs, AIPC(c.UsefulInstrs, r.wres.Cycles))
		ooos = append(ooos, r.ores.IPC)
		t.AddRow(c.Name, c.UsefulInstrs, r.ores.IPC,
			AIPC(c.UsefulInstrs, r.wres.Cycles), r.wres.IPC,
			AIPC(c.UsefulInstrs, r.ires.Cycles), sp)
	}
	t.AddRow("geomean", "", stats.GeoMean(ooos), stats.GeoMean(wcs), "", "", stats.GeoMean(speedups))
	t.Note = "speedup = ooo cycles / WaveCache cycles on identical source"
	return t, nil
}

func runE2(set []*Compiled, m MachineOptions) (*stats.Table, error) {
	var points []point
	for _, capacity := range []int{4, 8, 16, 32, 64} {
		o := m
		o.GridW, o.GridH = 1, 1
		o.Density, o.PEStore = capacity, capacity
		points = append(points, point{strconv.Itoa(capacity), o})
	}
	return sweepTable("E2: AIPC and swaps vs. PE instruction-store capacity (1x1 grid)",
		columns(points, "aipc@", "swaps@"), set, m, points,
		func(c *Compiled, res []wavecache.Result) []any {
			var row []any
			for i := range res {
				row = append(row, AIPC(c.UsefulInstrs, res[i].Cycles), res[i].Swaps)
			}
			return row
		})
}

func runE3(set []*Compiled, m MachineOptions) (*stats.Table, error) {
	var points []point
	for _, g := range [][2]int{{1, 1}, {2, 2}, {4, 4}, {8, 8}} {
		o := m
		o.GridW, o.GridH = g[0], g[1]
		points = append(points, point{fmt.Sprintf("%dx%d", g[0], g[1]), o})
	}
	return sweepTable("E3: AIPC vs. cluster grid size", columns(points, "aipc@"), set, m, points, aipcs)
}

func runE4(set []*Compiled, m MachineOptions) (*stats.Table, error) {
	var points []point
	for _, mode := range []wavecache.MemoryMode{wavecache.MemSerial, wavecache.MemOrdered, wavecache.MemSpec, wavecache.MemIdeal} {
		o := m
		o.MemMode = mode
		points = append(points, point{mode.String(), o})
	}
	var ordSer, specOrd []float64
	t, err := sweepTable("E4: AIPC by memory ordering strategy",
		[]string{"serialized", "wave-ordered", "speculative", "oracle", "ordered/serial", "spec/ordered", "oracle/spec"},
		set, m, points, func(c *Compiled, r []wavecache.Result) []any {
			serial, ordered, spec, oracle := r[0].Cycles, r[1].Cycles, r[2].Cycles, r[3].Cycles
			rs := float64(serial) / float64(ordered)
			ro := float64(ordered) / float64(spec)
			ordSer = append(ordSer, rs)
			specOrd = append(specOrd, ro)
			return append(aipcs(c, r), rs, ro, float64(spec)/float64(oracle))
		})
	if err != nil {
		return nil, err
	}
	t.Note = fmt.Sprintf("geomean speedup: wave-ordered over serialized %.2fx, speculative over wave-ordered %.2fx",
		stats.GeoMean(ordSer), stats.GeoMean(specOrd))
	return t, nil
}

func runE5(set []*Compiled, m MachineOptions) (*stats.Table, error) {
	var points []point
	for _, s := range []int64{0, 1, 2, 4} {
		o := m
		o.NetScale = cmp.Or(s, zeroed)
		points = append(points, point{fmt.Sprintf("x%d", s), o})
	}
	return sweepTable("E5: AIPC vs. operand-network latency scale", columns(points, "aipc@"), set, m, points, aipcs)
}

func runE6(set []*Compiled, m MachineOptions) (*stats.Table, error) {
	var points []point
	for _, q := range []int{4, 16, 64, 256, maxCount} {
		label := strconv.Itoa(q)
		if q == maxCount {
			label = "inf"
		}
		o := m
		o.InputQueue = q
		points = append(points, point{label, o})
	}
	const spillsAt = 1 // the 16-entry queue's point
	return sweepTable("E6: AIPC vs. PE input-queue capacity",
		append(columns(points, "aipc@"), "spills@"+points[spillsAt].label), set, m, points,
		func(c *Compiled, res []wavecache.Result) []any {
			return append(aipcs(c, res), res[spillsAt].Overflows)
		})
}

func runE7(set []*Compiled, m MachineOptions) (*stats.Table, error) {
	var points []point
	for _, words := range []int64{64, 256, 1024, 4096} {
		o := m
		o.L1Words = words
		points = append(points, point{fmt.Sprintf("%dKB", words*8/1024), o})
	}
	const trafficAt = 1 // the 256-word (2 KB) point
	at := points[trafficAt].label
	t, err := sweepTable("E7: AIPC vs. per-cluster L1 size; coherence traffic",
		append(columns(points, "aipc@"), "missrate@"+at, "transfers@"+at), set, m, points,
		func(c *Compiled, res []wavecache.Result) []any {
			mem := res[trafficAt].Mem
			var miss float64
			if mem.Accesses > 0 {
				miss = float64(mem.L1Misses) / float64(mem.Accesses)
			}
			return append(aipcs(c, res), miss, mem.Transfers)
		})
	if err != nil {
		return nil, err
	}
	t.Note = "L1 sizes are per cluster; 64 words = 0.5 KB"
	return t, nil
}

func runE8(set []*Compiled, m MachineOptions) (*stats.Table, error) {
	var points []point
	for _, name := range placement.Names() {
		o := m
		o.Policy = name
		points = append(points, point{name, o})
	}
	perPolicy := make([][]float64, len(points))
	t, err := sweepTable("E8: AIPC by placement algorithm", columns(points, ""), set, m, points,
		func(c *Compiled, res []wavecache.Result) []any {
			for pi := range res {
				perPolicy[pi] = append(perPolicy[pi], AIPC(c.UsefulInstrs, res[pi].Cycles))
			}
			return aipcs(c, res)
		})
	if err != nil {
		return nil, err
	}
	geo := []any{"geomean"}
	for _, col := range perPolicy {
		geo = append(geo, stats.GeoMean(col))
	}
	t.AddRow(geo...)
	return t, nil
}

func runE9(set []*Compiled, m MachineOptions) (*stats.Table, error) {
	t := stats.NewTable("E9: steer (φ⁻¹) vs. select (φ) control",
		"bench", "steer-aipc", "select-aipc", "steer-static", "select-static", "steer-fired", "select-fired")
	// When nothing was if-converted the select binary is the steer binary,
	// and the simulator is deterministic: the select column copies the steer
	// cell's Result instead of running it again.
	res := make([][2]wavecache.Result, len(set))
	cells := newCellSet(m)
	for i, c := range set {
		sel, err := c.Binary("select")
		if err != nil {
			return nil, err
		}
		cells.wave(c, c.Wave, m, &res[i][0])
		if sel != c.Wave {
			cells.wave(c, sel, m, &res[i][1])
		}
	}
	if err := cells.run(); err != nil {
		return nil, err
	}
	for i, c := range set {
		steer, sel := res[i][0], res[i][1]
		if c.WaveSel == c.Wave {
			sel = steer
		}
		t.AddRow(c.Name, AIPC(c.UsefulInstrs, steer.Cycles), AIPC(c.UsefulInstrs, sel.Cycles),
			c.Wave.NumInstrs(), c.WaveSel.NumInstrs(), steer.Fired, sel.Fired)
	}
	return t, nil
}

func runE10(set []*Compiled, m MachineOptions) (*stats.Table, error) {
	var points []point
	for _, cost := range []int64{0, 8, 32, 128} {
		// Only the stores shrink: placement still packs m.Density homes per
		// PE, which is what makes them swap.
		o := m
		o.PEStore, o.SwapPenalty = 8, cmp.Or(cost, zeroed)
		points = append(points, point{strconv.FormatInt(cost, 10), o})
	}
	t, err := sweepTable("E10: AIPC vs. instruction swap penalty (8-per-PE stores)", columns(points, "aipc@"), set, m, points, aipcs)
	if err != nil {
		return nil, err
	}
	t.Note = "stores deliberately undersized (8 instructions) so swapping is on the critical path"
	return t, nil
}

func runE11(set []*Compiled, m MachineOptions) (*stats.Table, error) {
	t := stats.NewTable("E11: loop unrolling ablation",
		"bench", "wc-rolled-cyc", "wc-unrolled-cyc", "wc-gain", "ooo-rolled-cyc", "ooo-unrolled-cyc", "ooo-gain")
	type row struct {
		wr, wu wavecache.Result
		or, ou ooo.Result
	}
	rows := make([]row, len(set))
	cells := newCellSet(m)
	for i, c := range set {
		cells.wave(c, c.WaveNoUn, m, &rows[i].wr)
		cells.wave(c, c.Wave, m, &rows[i].wu)
		cells.add(c, func() error {
			rolled, err := rolledBuild(c)
			if err != nil {
				return err
			}
			rows[i].or, err = RunOoO(rolled, DefaultOoOConfig())
			return err
		})
		cells.add(c, func() (err error) {
			rows[i].ou, err = RunOoO(c, DefaultOoOConfig())
			return err
		})
	}
	if err := cells.run(); err != nil {
		return nil, err
	}
	var wcGains, oooGains []float64
	for i, c := range set {
		r := &rows[i]
		wcGain := float64(r.wr.Cycles) / float64(r.wu.Cycles)
		oooGain := float64(r.or.Cycles) / float64(r.ou.Cycles)
		wcGains = append(wcGains, wcGain)
		oooGains = append(oooGains, oooGain)
		t.AddRow(c.Name, r.wr.Cycles, r.wu.Cycles, wcGain, r.or.Cycles, r.ou.Cycles, oooGain)
	}
	t.Note = fmt.Sprintf("geomean unrolling gain: WaveCache %.2fx, superscalar %.2fx",
		stats.GeoMean(wcGains), stats.GeoMean(oooGains))
	return t, nil
}

// rolledBuild compiles c's source without unrolling: E11's build for the
// baseline. Only Linear is read, so one dataflow lowering (there is no
// asking for none) and not three.
func rolledBuild(c *Compiled) (*Compiled, error) {
	return CompileSource(c.Name, c.Src, CompileOptions{Unroll: 1, OptLevel: c.Opt, Binaries: []string{"steer"}})
}

// runE14 crosses the memory-optimization tier (-O1 vs -O0) with the
// placement: m's policy against the static depth-first-snake layout. AIPC
// for every combination is computed against the *unoptimized* binary's
// dynamic linear instruction count — the optimizer removes instructions,
// so charging each binary its own count would hide exactly the work the
// tier eliminated. Checksums are verified on every cell (RunWave), so a
// miscompiled program fails the experiment rather than skewing it.
func runE14(set []*Compiled, m MachineOptions) (*stats.Table, error) {
	t := stats.NewTable("E14: AIPC by optimizer tier x static placement (work = O0 linear instrs)",
		"bench", "o0-base", "o0-static", "o1-base", "o1-static", "o1/o0", "best/o0-base", "memops", "chain-slots")

	// Build both tiers of every bench up front. The incoming set may have
	// been compiled at either level, so reuse a bench's own binary for the
	// level it was built at and recompile only the other tier — its steer
	// binary, which is what every cell below simulates and what Chains and
	// MemOpt come with.
	tier := func(opt int) CompileOptions {
		return CompileOptions{Unroll: DefaultCompileOptions().Unroll, OptLevel: opt, Binaries: []string{"steer"}}
	}
	type pair struct {
		o0, o1 *Compiled
	}
	pairs := make([]pair, len(set))
	comp := newCellSet(m)
	for bi, c := range set {
		comp.add(c, func() error {
			p := &pairs[bi]
			p.o0, p.o1 = c, c
			var err error
			if c.Opt != 0 {
				if p.o0, err = CompileSource(c.Name, c.Src, tier(0)); err != nil {
					return fmt.Errorf("E14 %s at O0: %w", c.Name, err)
				}
			}
			if c.Opt < 1 {
				if p.o1, err = CompileSource(c.Name, c.Src, tier(1)); err != nil {
					return fmt.Errorf("E14 %s at O1: %w", c.Name, err)
				}
			}
			return nil
		})
	}
	if err := comp.run(); err != nil {
		return nil, err
	}

	// Four simulation cells per bench: {O0, O1} x {baseline policy,
	// depth-first-snake}.
	static := m
	static.Policy = "depth-first-snake"
	res := make([][4]wavecache.Result, len(set))
	cells := newCellSet(m)
	for bi, p := range pairs {
		for ti, c := range []*Compiled{p.o0, p.o1} {
			cells.wave(c, c.Wave, m, &res[bi][2*ti])
			cells.wave(c, c.Wave, static, &res[bi][2*ti+1])
		}
	}
	if err := cells.run(); err != nil {
		return nil, err
	}

	var optRatios, bestRatios []float64
	for bi, c := range set {
		p := pairs[bi]
		useful := p.o0.UsefulInstrs
		r := &res[bi]
		cy := [4]int64{r[0].Cycles, r[1].Cycles, r[2].Cycles, r[3].Cycles}
		opt := float64(cy[0]) / float64(cy[2])
		bestGain := float64(cy[0]) / float64(min(cy[1], cy[3]))
		optRatios = append(optRatios, opt)
		bestRatios = append(bestRatios, bestGain)
		t.AddRow(c.Name, AIPC(useful, cy[0]), AIPC(useful, cy[1]), AIPC(useful, cy[2]), AIPC(useful, cy[3]),
			opt, bestGain, fmt.Sprintf("%d->%d", p.o1.MemOpt.MemBefore, p.o1.MemOpt.MemAfter),
			fmt.Sprintf("%d->%d", p.o0.Chains.Slots, p.o1.Chains.Slots))
	}
	t.Note = fmt.Sprintf("geomean cycle speedup: O1 over O0 (baseline policy) %.2fx; best static combination over O0 baseline %.2fx", stats.GeoMean(optRatios), stats.GeoMean(bestRatios))
	return t, nil
}
