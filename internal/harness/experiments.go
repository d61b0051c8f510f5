package harness

import (
	"fmt"

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
		Title: "Compiler memory optimization and profile-guided placement feedback",
		Claim: "shrinking the wave-ordered memory chains at compile time and feeding a profile-optimized layout back into placement each improve AIPC, and the two compose",
		Run:   runE14,
	},
	{
		ID:    "E15",
		Title: "Speculation scope: transaction-epoch size under MemSpec",
		Claim: "per-wave epochs catch conflicts cheaply; widening the scope amortizes epoch bookkeeping but squashes more innocent work per violation, so AIPC degrades as squash cost grows faster than the bookkeeping it saves",
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
		cells.add(func() error {
			var err error
			rows[i].ores, err = RunOoO(c, DefaultOoOConfig())
			return err
		})
		cells.wave(c, c.Wave, m, &rows[i].wres)
		cells.wave(c, c.Wave, idealMachine, &rows[i].ires, idealize)
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
	caps := []int{4, 8, 16, 32, 64}
	headers := []string{"bench"}
	for _, c := range caps {
		headers = append(headers, fmt.Sprintf("aipc@%d", c), fmt.Sprintf("swaps@%d", c))
	}
	t := stats.NewTable("E2: AIPC and swaps vs. PE instruction-store capacity (1x1 grid)", headers...)
	grid := make([]wavecache.Result, len(set)*len(caps))
	cells := newCellSet(m)
	for bi, c := range set {
		for ci, capacity := range caps {
			opt := m
			opt.GridW, opt.GridH = 1, 1
			opt.Density, opt.PEStore = capacity, capacity
			cells.wave(c, c.Wave, opt, &grid[bi*len(caps)+ci])
		}
	}
	if err := cells.run(); err != nil {
		return nil, err
	}
	for bi, c := range set {
		row := []any{c.Name}
		for ci := range caps {
			res := &grid[bi*len(caps)+ci]
			row = append(row, AIPC(c.UsefulInstrs, res.Cycles), res.Swaps)
		}
		t.AddRow(row...)
	}
	return t, nil
}

func runE3(set []*Compiled, m MachineOptions) (*stats.Table, error) {
	grids := [][2]int{{1, 1}, {2, 2}, {4, 4}, {8, 8}}
	headers := []string{"bench"}
	for _, g := range grids {
		headers = append(headers, fmt.Sprintf("aipc@%dx%d", g[0], g[1]))
	}
	t := stats.NewTable("E3: AIPC vs. cluster grid size", headers...)
	grid := make([]wavecache.Result, len(set)*len(grids))
	cells := newCellSet(m)
	for bi, c := range set {
		for gi, g := range grids {
			opt := m
			opt.GridW, opt.GridH = g[0], g[1]
			cells.wave(c, c.Wave, opt, &grid[bi*len(grids)+gi])
		}
	}
	if err := cells.run(); err != nil {
		return nil, err
	}
	for bi, c := range set {
		row := []any{c.Name}
		for gi := range grids {
			row = append(row, AIPC(c.UsefulInstrs, grid[bi*len(grids)+gi].Cycles))
		}
		t.AddRow(row...)
	}
	return t, nil
}

func runE4(set []*Compiled, m MachineOptions) (*stats.Table, error) {
	t := stats.NewTable("E4: AIPC by memory ordering strategy",
		"bench", "serialized", "wave-ordered", "speculative", "oracle",
		"ordered/serial", "spec/ordered", "oracle/spec")
	modes := []wavecache.MemoryMode{wavecache.MemSerial, wavecache.MemOrdered, wavecache.MemSpec, wavecache.MemIdeal}
	grid := make([]wavecache.Result, len(set)*len(modes))
	cells := newCellSet(m)
	for bi, c := range set {
		for mi, mode := range modes {
			opt := m
			opt.MemMode = mode
			cells.wave(c, c.Wave, opt, &grid[bi*len(modes)+mi])
		}
	}
	if err := cells.run(); err != nil {
		return nil, err
	}
	var ordSer, specOrd []float64
	for bi, c := range set {
		r := grid[bi*len(modes) : (bi+1)*len(modes)]
		serial, ordered, spec, oracle := r[0].Cycles, r[1].Cycles, r[2].Cycles, r[3].Cycles
		rs := float64(serial) / float64(ordered)
		ro := float64(ordered) / float64(spec)
		ordSer = append(ordSer, rs)
		specOrd = append(specOrd, ro)
		t.AddRow(c.Name,
			AIPC(c.UsefulInstrs, serial),
			AIPC(c.UsefulInstrs, ordered),
			AIPC(c.UsefulInstrs, spec),
			AIPC(c.UsefulInstrs, oracle),
			rs,
			ro,
			float64(spec)/float64(oracle))
	}
	t.Note = fmt.Sprintf("geomean speedup: wave-ordered over serialized %.2fx, speculative over wave-ordered %.2fx",
		stats.GeoMean(ordSer), stats.GeoMean(specOrd))
	return t, nil
}

func runE5(set []*Compiled, m MachineOptions) (*stats.Table, error) {
	scales := []int64{0, 1, 2, 4}
	headers := []string{"bench"}
	for _, s := range scales {
		headers = append(headers, fmt.Sprintf("aipc@x%d", s))
	}
	t := stats.NewTable("E5: AIPC vs. operand-network latency scale", headers...)
	grid := make([]wavecache.Result, len(set)*len(scales))
	cells := newCellSet(m)
	for bi, c := range set {
		for si, s := range scales {
			cells.wave(c, c.Wave, m, &grid[bi*len(scales)+si], func(cfg *wavecache.Config) {
				cfg.Net.IntraPod *= s
				cfg.Net.IntraDomain *= s
				cfg.Net.IntraCluster *= s
				cfg.Net.InterClusterBase *= s
				cfg.Net.LinkLatency *= s
			})
		}
	}
	if err := cells.run(); err != nil {
		return nil, err
	}
	for bi, c := range set {
		row := []any{c.Name}
		for si := range scales {
			row = append(row, AIPC(c.UsefulInstrs, grid[bi*len(scales)+si].Cycles))
		}
		t.AddRow(row...)
	}
	return t, nil
}

func runE6(set []*Compiled, m MachineOptions) (*stats.Table, error) {
	queues := []int{4, 16, 64, 256, 1 << 30}
	headers := []string{"bench"}
	for _, q := range queues {
		label := fmt.Sprintf("%d", q)
		if q == 1<<30 {
			label = "inf"
		}
		headers = append(headers, "aipc@"+label)
	}
	headers = append(headers, "spills@16")
	t := stats.NewTable("E6: AIPC vs. PE input-queue capacity", headers...)
	grid := make([]wavecache.Result, len(set)*len(queues))
	cells := newCellSet(m)
	for bi, c := range set {
		for qi, q := range queues {
			opt := m
			opt.InputQueue = q
			cells.wave(c, c.Wave, opt, &grid[bi*len(queues)+qi])
		}
	}
	if err := cells.run(); err != nil {
		return nil, err
	}
	for bi, c := range set {
		row := []any{c.Name}
		var spills16 uint64
		for qi, q := range queues {
			res := &grid[bi*len(queues)+qi]
			if q == 16 {
				spills16 = res.Overflows
			}
			row = append(row, AIPC(c.UsefulInstrs, res.Cycles))
		}
		row = append(row, spills16)
		t.AddRow(row...)
	}
	return t, nil
}

func runE7(set []*Compiled, m MachineOptions) (*stats.Table, error) {
	sizes := []int64{64, 256, 1024, 4096}
	headers := []string{"bench"}
	for _, s := range sizes {
		headers = append(headers, fmt.Sprintf("aipc@%dKB", s*8/1024))
	}
	headers = append(headers, "missrate@2KB", "transfers@2KB")
	t := stats.NewTable("E7: AIPC vs. per-cluster L1 size; coherence traffic", headers...)
	grid := make([]wavecache.Result, len(set)*len(sizes))
	cells := newCellSet(m)
	for bi, c := range set {
		for si, s := range sizes {
			opt := m
			opt.L1Words = s
			cells.wave(c, c.Wave, opt, &grid[bi*len(sizes)+si])
		}
	}
	if err := cells.run(); err != nil {
		return nil, err
	}
	for bi, c := range set {
		row := []any{c.Name}
		var miss float64
		var transfers uint64
		for si, s := range sizes {
			res := &grid[bi*len(sizes)+si]
			if s == 256 {
				if res.Mem.Accesses > 0 {
					miss = float64(res.Mem.L1Misses) / float64(res.Mem.Accesses)
				}
				transfers = res.Mem.Transfers
			}
			row = append(row, AIPC(c.UsefulInstrs, res.Cycles))
		}
		row = append(row, miss, transfers)
		t.AddRow(row...)
	}
	t.Note = "L1 sizes are per cluster; 64 words = 0.5 KB"
	return t, nil
}

func runE8(set []*Compiled, m MachineOptions) (*stats.Table, error) {
	policies := placement.Names()
	headers := append([]string{"bench"}, policies...)
	t := stats.NewTable("E8: AIPC by placement algorithm", headers...)
	grid := make([]wavecache.Result, len(set)*len(policies))
	cells := newCellSet(m)
	for bi, c := range set {
		for pi, name := range policies {
			opt := m
			opt.Policy = name
			cells.wave(c, c.Wave, opt, &grid[bi*len(policies)+pi])
		}
	}
	if err := cells.run(); err != nil {
		return nil, err
	}
	perPolicy := make([][]float64, len(policies))
	for bi, c := range set {
		row := []any{c.Name}
		for pi := range policies {
			a := AIPC(c.UsefulInstrs, grid[bi*len(policies)+pi].Cycles)
			perPolicy[pi] = append(perPolicy[pi], a)
			row = append(row, a)
		}
		t.AddRow(row...)
	}
	geo := []any{"geomean"}
	for pi := range policies {
		geo = append(geo, stats.GeoMean(perPolicy[pi]))
	}
	t.AddRow(geo...)
	return t, nil
}

func runE9(set []*Compiled, m MachineOptions) (*stats.Table, error) {
	t := stats.NewTable("E9: steer (φ⁻¹) vs. select (φ) control",
		"bench", "steer-aipc", "select-aipc", "steer-static", "select-static", "steer-fired", "select-fired")
	type row struct {
		rs, rsel wavecache.Result
	}
	rows := make([]row, len(set))
	cells := newCellSet(m)
	for i, c := range set {
		cells.wave(c, c.Wave, m, &rows[i].rs)
		cells.wave(c, c.WaveSel, m, &rows[i].rsel)
	}
	if err := cells.run(); err != nil {
		return nil, err
	}
	for i, c := range set {
		r := &rows[i]
		t.AddRow(c.Name,
			AIPC(c.UsefulInstrs, r.rs.Cycles), AIPC(c.UsefulInstrs, r.rsel.Cycles),
			c.Wave.NumInstrs(), c.WaveSel.NumInstrs(),
			r.rs.Fired, r.rsel.Fired)
	}
	return t, nil
}

func runE10(set []*Compiled, m MachineOptions) (*stats.Table, error) {
	costs := []int64{0, 8, 32, 128}
	headers := []string{"bench"}
	for _, c := range costs {
		headers = append(headers, fmt.Sprintf("aipc@%d", c))
	}
	t := stats.NewTable("E10: AIPC vs. instruction swap penalty (8-per-PE stores)", headers...)
	grid := make([]wavecache.Result, len(set)*len(costs))
	cells := newCellSet(m)
	// Only the stores shrink: placement still packs m.Density homes per PE,
	// which is what makes them swap.
	small := m
	small.PEStore = 8
	for bi, c := range set {
		for ci, cost := range costs {
			cells.wave(c, c.Wave, small, &grid[bi*len(costs)+ci], func(cfg *wavecache.Config) { cfg.SwapPenalty = cost })
		}
	}
	if err := cells.run(); err != nil {
		return nil, err
	}
	for bi, c := range set {
		row := []any{c.Name}
		for ci := range costs {
			row = append(row, AIPC(c.UsefulInstrs, grid[bi*len(costs)+ci].Cycles))
		}
		t.AddRow(row...)
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
		cells.add(func() error {
			// Rolled linear build for the baseline.
			rolled, err := CompileSource(c.Name, c.Src, CompileOptions{Unroll: 1, OptLevel: c.Opt})
			if err != nil {
				return err
			}
			rows[i].or, err = RunOoO(rolled, DefaultOoOConfig())
			return err
		})
		cells.add(func() error {
			var err error
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
