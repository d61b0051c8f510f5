package harness

import (
	"fmt"

	"wavescalar/internal/stats"
	"wavescalar/internal/wavecache"
)

// e12Seed drives every E12 fault decision; one fixed seed keeps the tables
// reproducible bit-for-bit at any worker count.
const e12Seed = 7

// e12Scenarios is the fault sweep, as -faults specs: configuration-time
// defects, operand message loss, store-buffer message loss, and everything
// at once. Every scenario is recoverable: each run must still produce its
// workload's checksum (RunWave enforces it), the differential invariant of
// the experiment.
var e12Scenarios = []struct {
	name, spec string
}{
	{"fault-free", ""},
	{"defect-5%", "defect=0.05"},
	{"defect-25%", "defect=0.25"},
	{"drop-1%", "drop=0.01"},
	{"drop-10%", "drop=0.10"},
	{"memloss-1%", "memloss=0.01"},
	{"combined", "defect=0.10,drop=0.02,delay=0.02,memloss=0.01"},
}

func runE12(set []*Compiled, m MachineOptions) (*stats.Table, error) {
	t := stats.NewTable("E12: AIPC under injected faults (checksums verified on every cell)",
		"bench", "scenario", "dead-pes", "aipc", "rel", "drops", "retries", "mem-retries", "retry-wait")
	results := make([]wavecache.Result, len(set)*len(e12Scenarios))
	cells := newCellSet(m)
	for bi, c := range set {
		for si, sc := range e12Scenarios {
			slot := bi*len(e12Scenarios) + si
			cells.add(func() error {
				opt := m
				opt.Faults, opt.FaultSeed = sc.spec, e12Seed
				// Watchdog backstop: a faulty run must terminate, never hang.
				opt.MaxCycles = 50_000_000
				res, err := runWaveWith(c, c.Wave, opt)
				if err != nil {
					return fmt.Errorf("E12 %s/%s: %w", c.Name, sc.name, err)
				}
				results[slot] = res
				return nil
			})
		}
	}
	if err := cells.run(); err != nil {
		return nil, err
	}
	for bi, c := range set {
		base := AIPC(c.UsefulInstrs, results[bi*len(e12Scenarios)].Cycles)
		for si, sc := range e12Scenarios {
			r := &results[bi*len(e12Scenarios)+si]
			aipc := AIPC(c.UsefulInstrs, r.Cycles)
			rel := 0.0
			if base > 0 {
				rel = aipc / base
			}
			op, sb := r.Faults.Operand, r.Faults.StoreBuffer
			t.AddRow(c.Name, sc.name, r.Faults.DefectivePEs, aipc, rel,
				op.Drops, op.Retries, sb.Retries, op.RetryWait+sb.RetryWait)
		}
	}
	t.Note = fmt.Sprintf("fault seed %d; rel = AIPC / fault-free AIPC; every cell re-verified its workload checksum against the linear emulator", e12Seed)
	return t, nil
}
