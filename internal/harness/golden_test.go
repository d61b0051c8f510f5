package harness

import (
	"encoding/json"
	"flag"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"wavescalar/internal/fault"
	"wavescalar/internal/placement"
	"wavescalar/internal/wavecache"
)

// The golden suite pins the WaveCache engine's observable behaviour: every
// workload, clean and under injected faults, must reproduce the exact
// Result (cycles, fired, tokens, swaps, network/memory/ordering counters)
// and final memory image recorded before the allocation-free engine
// rewrite. Any engine optimization that shifts a single counter or cycle
// fails here. Regenerate deliberately with:
//
//	go test ./internal/harness -run TestGoldenWaveCache -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_wavecache.json from the current engine")

const goldenPath = "testdata/golden_wavecache.json"

// goldenScenarios is the fault sweep the golden suite pins; it mirrors the
// E12 sweep's span (clean, defects, operand loss, memory loss, combined).
var goldenScenarios = []struct {
	Name string
	Cfg  fault.Config
}{
	{"clean", fault.Config{}},
	{"defect-25%", fault.Config{Seed: e12Seed, DefectRate: 0.25}},
	{"drop-10%", fault.Config{Seed: e12Seed, DropRate: 0.10}},
	{"combined", fault.Config{Seed: e12Seed, DefectRate: 0.10, DropRate: 0.02, DelayRate: 0.02, MemLossRate: 0.01}},
}

// goldenRecord is one (workload, scenario) cell's pinned observables.
type goldenRecord struct {
	Workload string
	Scenario string

	Value     int64
	Fired     uint64
	Cycles    int64
	Tokens    uint64
	Swaps     uint64
	Overflows uint64
	PEsUsed   int

	NetMessages uint64
	NetMeshHops uint64
	NetStalls   uint64
	NetDrops    uint64
	NetRetries  uint64

	MemAccesses  uint64
	MemL1Misses  uint64
	MemTransfers uint64

	OrderIssued     uint64
	OrderWavesDone  uint64
	OrderMaxPending int

	MemImageHash uint64
}

func goldenConfig(m MachineOptions, sc fault.Config) wavecache.Config {
	cfg := m.WaveConfig()
	cfg.Faults = sc
	cfg.MaxCycles = 50_000_000
	if sc.DefectRate > 0 {
		cfg.Machine.Defective = fault.DefectMap(sc, cfg.Machine.NumPEs())
	}
	return cfg
}

func collectGolden(t *testing.T) []goldenRecord {
	t.Helper()
	opts := DefaultCompileOptions()
	// The golden snapshot predates the memory-optimization tier and pins
	// the pre-optimizer binaries bit-for-bit; replay must compile exactly
	// the program the snapshot recorded. The tier's correctness is covered
	// separately by the differential suites at both opt levels.
	opts.OptLevel = 0
	set, err := Suite(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := DefaultMachineOptions()
	m.GridW, m.GridH = 2, 2
	var recs []goldenRecord
	for _, c := range set {
		ref, err := emulatorTrace(c.Linear)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range goldenScenarios {
			cfg := goldenConfig(m, sc.Cfg)
			pol, err := placement.New(m.Policy, cfg.Machine, c.Wave, 12345)
			if err != nil {
				t.Fatal(err)
			}
			a := wavecache.NewArena()
			res, err := a.Run(c.Wave, pol, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.Name, sc.Name, err)
			}
			// Riding along: whatever the scenario lost, delayed or routed
			// around, memory saw the program's loads and stores in order.
			if f := a.Fence(); f.Commit != ref.commit || f.Image != ref.image {
				t.Errorf("%s/%s: commit trace %x (image %x) is not the emulator's %x (image %x)",
					c.Name, sc.Name, f.Commit, f.Image, ref.commit, ref.image)
			}
			mem := a.Memory()
			h := fnv.New64a()
			for _, w := range mem {
				var b [8]byte
				for i := 0; i < 8; i++ {
					b[i] = byte(w >> (8 * i))
				}
				h.Write(b[:])
			}
			recs = append(recs, goldenRecord{
				Workload: c.Name, Scenario: sc.Name,
				Value: res.Value, Fired: res.Fired, Cycles: res.Cycles,
				Tokens: res.Tokens, Swaps: res.Swaps, Overflows: res.Overflows,
				PEsUsed:     res.PEsUsed,
				NetMessages: res.Net.Messages, NetMeshHops: res.Net.MeshHops,
				NetStalls: res.Net.StallCycles, NetDrops: res.Faults.Operand.Drops,
				NetRetries:  res.Faults.Operand.Retries,
				MemAccesses: res.Mem.Accesses, MemL1Misses: res.Mem.L1Misses,
				MemTransfers: res.Mem.Transfers,
				OrderIssued:  res.Order.Issued, OrderWavesDone: res.Order.WavesDone,
				OrderMaxPending: res.Order.MaxPending,
				MemImageHash:    h.Sum64(),
			})
		}
	}
	return recs
}

// TestGoldenWaveCache replays every workload under every golden scenario
// and demands bit-identical observables to the committed snapshot.
func TestGoldenWaveCache(t *testing.T) {
	if testing.Short() {
		t.Skip("golden suite compiles and simulates the full workload set")
	}
	got := collectGolden(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden records to %s", len(got), goldenPath)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden snapshot (run with -update-golden to create): %v", err)
	}
	var want []goldenRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("golden record count changed: got %d want %d (workload set or scenario sweep changed; regenerate deliberately)", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("golden mismatch at %s/%s:\n  got  %+v\n  want %+v",
				want[i].Workload, want[i].Scenario, got[i], want[i])
		}
	}
}
