package harness

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"wavescalar/internal/parallel"
	"wavescalar/internal/stats"
	"wavescalar/internal/wavecache"
)

// cellSet is how an experiment declares its simulation cells: one closure
// per independent (workload, configuration, engine) run. Cells are
// declared in the sequential baseline's loop order, executed across the
// configured worker pool in arbitrary order, and must write their results
// only through slots they own (an index into a pre-sized slice, or one
// field of that slice's element) so that the table built afterwards is
// byte-identical to a sequential run.
//
// Cells must be self-contained: construct placement policies, configs, and
// any seeded state inside the cell, never share them across cells.
type cellSet struct {
	workers int
	ctx     context.Context
	cells   []cell
}

// cell is one declared job and its weight: the useful instruction count of
// the bench it runs, which orders the pool's claims.
type cell struct {
	weight int64
	job    func() error
}

// newCellSet sizes a cell set for the machine's worker pool and inherits
// its cancellation context (cells themselves additionally receive
// Ctx.Done() through MachineOptions.Build).
func newCellSet(m MachineOptions) *cellSet {
	return &cellSet{workers: m.Workers, ctx: m.ctx()}
}

// add declares one cell of bench c.
func (cs *cellSet) add(c *Compiled, job func() error) {
	cs.cells = append(cs.cells, cell{weight: c.UsefulInstrs, job: job})
}

// claimOrder is the order the pool claims the cells in: heaviest bench
// first, so the longest cells do not start last and leave one worker
// running alone at the end; ties keep declaration order. One worker runs
// the cells in declaration order, the sequential baseline's.
func (cs *cellSet) claimOrder() []int {
	order := make([]int, len(cs.cells))
	for i := range order {
		order[i] = i
	}
	if cs.workers != 1 {
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(cs.cells[b].weight, cs.cells[a].weight) })
	}
	return order
}

// run executes every declared cell on the pool and returns the
// lowest-declaration-index error, if any — the one a sequential run
// returns; a cancelled context stops the pool from claiming further cells
// and surfaces the context's error.
func (cs *cellSet) run() error {
	order := cs.claimOrder()
	errs := make([]error, len(cs.cells))
	ran := make([]bool, len(cs.cells))
	err := parallel.ForEachCtx(cs.ctx, cs.workers, len(order), func(i int) error {
		d := order[i]
		ran[d] = true
		errs[d] = cs.cells[d].job()
		return errs[d]
	})
	if err == nil {
		return nil
	}
	// A failure stops the claims, which go heaviest first, so cells declared
	// before the failed one may not have run: run them here, in declaration
	// order, unless the run was cancelled.
	for d := range cs.cells {
		if !ran[d] && cs.ctx.Err() == nil {
			errs[d] = cs.cells[d].job()
		}
		if errs[d] != nil {
			return errs[d]
		}
	}
	return err
}

// point is one value of the parameter a sensitivity experiment sweeps: the
// label its columns (and its cells' errors) carry, and the machine its
// cells run, the experiment's with that parameter set. Every cell runs the
// steer binary.
type point struct {
	label string
	m     MachineOptions
}

// sweep runs every bench of set at every point on m's worker pool and
// returns res[bench][point]. Cells are declared bench-major — the
// sequential baseline's loop order — so the error returned is that of the
// first bench's first failing point.
func sweep(set []*Compiled, m MachineOptions, points []point) ([][]wavecache.Result, error) {
	res := make([][]wavecache.Result, len(set))
	cells := newCellSet(m)
	for bi, c := range set {
		res[bi] = make([]wavecache.Result, len(points))
		for pi, p := range points {
			cells.add(c, func() (err error) {
				if res[bi][pi], err = runWaveWith(c, c.Wave, p.m); err != nil {
					err = fmt.Errorf("%s/%s: %w", c.Name, p.label, err)
				}
				return err
			})
		}
	}
	if err := cells.run(); err != nil {
		return nil, err
	}
	return res, nil
}

// sweepTable is the shape of a one-axis experiment: sweep the points, then
// render one row per bench — its name under "bench", then what render makes
// of that bench's results, which arrive in point order.
func sweepTable(title string, cols []string, set []*Compiled, m MachineOptions, points []point,
	render func(c *Compiled, res []wavecache.Result) []any) (*stats.Table, error) {
	res, err := sweep(set, m, points)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(title, append([]string{"bench"}, cols...)...)
	for bi, c := range set {
		t.AddRow(append([]any{c.Name}, render(c, res[bi])...)...)
	}
	return t, nil
}

// columns names a sweep table's columns: each point's label behind each
// prefix, point-major.
func columns(points []point, prefixes ...string) []string {
	var cols []string
	for _, p := range points {
		for _, prefix := range prefixes {
			cols = append(cols, prefix+p.label)
		}
	}
	return cols
}

// aipcs is what most sweep tables print for a bench: its AIPC at each point.
func aipcs(c *Compiled, res []wavecache.Result) []any {
	row := make([]any, len(res))
	for i := range res {
		row[i] = AIPC(c.UsefulInstrs, res[i].Cycles)
	}
	return row
}
