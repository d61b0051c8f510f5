package harness

import (
	"fmt"

	"wavescalar/internal/stats"
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
	var points []point
	for _, sc := range e12Scenarios {
		o := m
		o.Faults, o.FaultSeed = sc.spec, e12Seed
		// Watchdog backstop: a faulty run must terminate, never hang.
		o.MaxCycles = 50_000_000
		points = append(points, point{sc.name, o})
	}
	res, err := sweep(set, m, points)
	if err != nil {
		return nil, fmt.Errorf("E12 %w", err)
	}
	t := stats.NewTable("E12: AIPC under injected faults (checksums verified on every cell)",
		"bench", "scenario", "dead-pes", "aipc", "rel", "drops", "retries", "mem-retries", "retry-wait")
	for bi, c := range set {
		base := AIPC(c.UsefulInstrs, res[bi][0].Cycles)
		for si, sc := range e12Scenarios {
			r := &res[bi][si]
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
