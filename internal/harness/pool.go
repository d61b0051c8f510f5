package harness

import (
	"context"

	"wavescalar/internal/parallel"
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
	jobs    []func() error
}

// newCellSet sizes a cell set for the machine's worker pool and inherits
// its cancellation context (cells themselves additionally receive
// Ctx.Done() through MachineOptions.Build).
func newCellSet(m MachineOptions) *cellSet {
	return &cellSet{workers: m.Workers, ctx: m.ctx()}
}

// add declares one cell.
func (cs *cellSet) add(job func() error) { cs.jobs = append(cs.jobs, job) }

// run executes every declared cell on the pool and returns the
// lowest-declaration-index error, if any; a cancelled context stops the
// pool from claiming further cells and surfaces the context's error.
func (cs *cellSet) run() error {
	return parallel.ForEachCtx(cs.ctx, cs.workers, len(cs.jobs), func(i int) error { return cs.jobs[i]() })
}
