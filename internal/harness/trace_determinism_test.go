package harness

import (
	"bytes"
	"cmp"
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"wavescalar/internal/placement"
	"wavescalar/internal/trace"
	"wavescalar/internal/wavecache"
)

// tracedRun executes one workload on the WaveCache with a fully enabled
// tracer (events + metrics) attached, returning the simulation result and
// the tracer.
func tracedRun(t *testing.T, c *Compiled, m MachineOptions, faultSpec string) (wavecache.Result, *trace.Tracer) {
	t.Helper()
	m.Tracer = trace.New(trace.Config{Events: true})
	return runMachine(t, c, m, faultSpec), m.Tracer
}

// runMachine executes one workload on the WaveCache m describes, under
// faultSpec with fault seed 7, with whatever tracing m asks for.
func runMachine(t *testing.T, c *Compiled, m MachineOptions, faultSpec string) wavecache.Result {
	t.Helper()
	m.Faults, m.FaultSeed = faultSpec, 7
	cfg, pol, err := m.Build(c.Wave)
	if err != nil {
		t.Fatal(err)
	}
	res, err := wavecache.Run(c.Wave, pol, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTracingDoesNotPerturbSimulation: attaching a tracer (even with the
// event stream enabled), or only a metrics aggregate, must leave the
// simulation's Result bit-identical to an untraced run — tracing observes
// the event processing order, it never schedules anything. Checked on clean
// and faulty configurations.
func TestTracingDoesNotPerturbSimulation(t *testing.T) {
	set := quickSet(t)
	m := quickMachine()
	for _, spec := range []string{"", "defect=0.05,drop=0.02,retries=4"} {
		spec := spec
		name := "clean"
		if spec != "" {
			name = "faulty"
		}
		t.Run(name, func(t *testing.T) {
			for _, c := range set {
				base := runMachine(t, c, m, spec)
				traced, _ := tracedRun(t, c, m, spec)
				counted := m
				counted.Metrics = trace.NewAggregate()
				metricsOnly := runMachine(t, c, counted, spec)
				if !reflect.DeepEqual(base, traced) || !reflect.DeepEqual(base, metricsOnly) {
					t.Errorf("%s: traced or metrics-only result differs from untraced:\n%+v\n%+v\n%+v",
						c.Name, base, traced, metricsOnly)
				}
			}
		})
	}
}

// TestTraceStreamDeterministic: for a fixed (program, policy, config,
// fault seed), two traced runs must export byte-identical JSONL and
// Chrome traces, and render identical metrics summaries.
func TestTraceStreamDeterministic(t *testing.T) {
	set := quickSet(t)
	m := quickMachine()
	for _, spec := range []string{"", "defect=0.05,drop=0.02,retries=4"} {
		spec := spec
		name := "clean"
		if spec != "" {
			name = "faulty"
		}
		t.Run(name, func(t *testing.T) {
			c := set[0]
			_, tr1 := tracedRun(t, c, m, spec)
			_, tr2 := tracedRun(t, c, m, spec)
			var j1, j2 bytes.Buffer
			if err := tr1.WriteJSONL(&j1); err != nil {
				t.Fatal(err)
			}
			if err := tr2.WriteJSONL(&j2); err != nil {
				t.Fatal(err)
			}
			if j1.Len() == 0 {
				t.Fatal("empty event stream")
			}
			if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
				t.Error("JSONL event streams differ between identical runs")
			}
			var c1, c2 bytes.Buffer
			if err := tr1.WriteChromeTrace(&c1); err != nil {
				t.Fatal(err)
			}
			if err := tr2.WriteChromeTrace(&c2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(c1.Bytes(), c2.Bytes()) {
				t.Error("Chrome traces differ between identical runs")
			}
			s1 := tr1.Metrics().Summary("m").Render()
			s2 := tr2.Metrics().Summary("m").Render()
			if s1 != s2 {
				t.Errorf("metrics summaries differ:\n%s\n%s", s1, s2)
			}
		})
	}
}

// TestMetricsWorkerCountInvariance: an experiment's aggregated metrics
// summary must be byte-identical at any worker count (the Aggregate merge
// is commutative), and enabling metrics must leave the experiment table
// itself untouched.
func TestMetricsWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep is slow")
	}
	set := quickSet(t)
	e := ExperimentByID("E1")

	base := quickMachine()
	base.Workers = 1
	plain, err := e.Run(set, base)
	if err != nil {
		t.Fatal(err)
	}

	render := func(workers int) (string, string) {
		m := quickMachine()
		m.Workers = workers
		m.Metrics = trace.NewAggregate()
		tbl, err := e.Run(set, m)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		WriteMetrics(e.ID, m, &sb)
		return tbl.Render(), sb.String()
	}
	t1, m1 := render(1)
	t8, m8 := render(8)
	if t1 != plain.Render() {
		t.Errorf("enabling metrics changed the experiment table:\n--- plain ---\n%s\n--- metrics ---\n%s",
			plain.Render(), t1)
	}
	if t1 != t8 {
		t.Error("experiment tables differ between -j 1 and -j 8 with metrics on")
	}
	if m1 == "" {
		t.Fatal("metrics summary empty")
	}
	if m1 != m8 {
		t.Errorf("metrics summaries differ between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s", m1, m8)
	}
}

// pinnedPlaceEvents are FNV-1a digests of the KindPlace events (T, function,
// instruction, PE) of a traced lu run on quickMachine, clean and with a PE
// dying at cycle 5000, recorded when placements were traced by a wrapper
// around the policy (placement.Traced, at the parent of the commit that
// moved the emission into the engine): the engine must emit the same stream.
var pinnedPlaceEvents = map[string]uint64{
	"dynamic-depth-first-snake/clean":       0x5cc20c75fac166da,
	"dynamic-depth-first-snake/kill=0@5000": 0xbae4368761e4e7eb,
	"static-snake/clean":                    0xa063ee79ea4c6496,
	"static-snake/kill=0@5000":              0x3dbe05ba128f0772,
	"random/clean":                          0x98905d97fbe5db6a,
	"random/kill=16@5000":                   0x75ccbc7eca3be031,
}

// TestPlaceEventsPinned: an instruction's first reference, and its first
// reference after its home PE died, each emit one placement event at the
// simulated time the reference happened, and nothing else does. Each policy
// loses a PE that holds instructions lu references again after the death.
func TestPlaceEventsPinned(t *testing.T) {
	c := quickSet(t)[0]
	for _, row := range []struct{ policy, kill string }{
		{"dynamic-depth-first-snake", "kill=0@5000"},
		{"static-snake", "kill=0@5000"},
		{"random", "kill=16@5000"},
	} {
		var places [2]int
		for i, spec := range []string{"", row.kill} {
			key := row.policy + "/" + cmp.Or(spec, "clean")
			m := quickMachine()
			m.Policy = row.policy
			_, tr := tracedRun(t, c, m, spec)
			h := fnv.New64a()
			for _, e := range tr.Events() {
				if e.Kind == trace.KindPlace {
					fmt.Fprintf(h, "%d:%d.%d@%d;", e.T, e.A, e.B, e.PE)
					places[i]++
				}
			}
			if uint64(places[i]) != tr.Metrics().Placements {
				t.Errorf("%s: %d place events, Placements = %d", key, places[i], tr.Metrics().Placements)
			}
			if got := h.Sum64(); got != pinnedPlaceEvents[key] {
				t.Errorf("placement events moved:\n\t%q: %#x,", key, got)
			}
		}
		if places[1] <= places[0] {
			t.Errorf("%s: %d placements with %s, %d without: nothing migrated",
				row.policy, places[1], row.kill, places[0])
		}
	}
}

// TestDenseCountersMatchPerCallCounts holds the engine's dense counters to
// the event stream of the same run, one event per call: fires by PE,
// cluster and domain to the fire events, Placements to the place events,
// OrderStallCycles to the summed mem-issue stalls and MaxQueueDepth to the
// deepest token event. (Links has no events; the engine fence's metrics
// column pins it.) Each memory mode runs under one fault scenario: none,
// losses, a PE kill, both.
func TestDenseCountersMatchPerCallCounts(t *testing.T) {
	specs := []string{"", "defect=0.05,drop=0.02,memloss=0.01", "kill=0@5000", "drop=0.02,kill=0@5000"}
	for _, c := range quickSet(t) {
		for i, mode := range memModes {
			m := quickMachine()
			m.MemMode = mode
			res, tr := tracedRun(t, c, m, specs[i])
			key := fmt.Sprintf("%s %v %q", c.Name, mode, specs[i])
			if tr.EventsDropped() != 0 {
				t.Fatalf("%s: %d events past the cap", key, tr.EventsDropped())
			}
			mc := m.WaveConfig().Machine
			nc := mc.NumClusters()
			want := trace.Metrics{
				PEFires:      make([]uint64, mc.NumPEs()),
				ClusterFires: make([]uint64, nc),
				DomainFires:  make([][]uint64, nc),
			}
			for cl := range want.DomainFires {
				want.DomainFires[cl] = make([]uint64, placement.DomainsPerCluster)
			}
			for _, e := range tr.Events() {
				switch e.Kind {
				case trace.KindFire:
					want.PEFires[e.PE]++
					want.ClusterFires[e.A]++
					want.DomainFires[e.A][e.B]++
				case trace.KindPlace:
					want.Placements++
				case trace.KindMemIssue:
					want.OrderStallCycles += uint64(e.B)
				case trace.KindToken:
					want.MaxQueueDepth = max(want.MaxQueueDepth, e.A)
				}
			}
			got := tr.Metrics()
			if !reflect.DeepEqual(got.PEFires, want.PEFires) || !reflect.DeepEqual(got.ClusterFires, want.ClusterFires) ||
				!reflect.DeepEqual(got.DomainFires, want.DomainFires) {
				t.Errorf("%s: fires by PE/cluster/domain\n%v %v %v\nwant\n%v %v %v", key,
					got.PEFires, got.ClusterFires, got.DomainFires, want.PEFires, want.ClusterFires, want.DomainFires)
			}
			if got.Placements != want.Placements || got.OrderStallCycles != want.OrderStallCycles ||
				got.MaxQueueDepth != want.MaxQueueDepth {
				t.Errorf("%s: placements %d, ordering stall %d, max queue %d; the events say %d, %d, %d", key,
					got.Placements, got.OrderStallCycles, got.MaxQueueDepth,
					want.Placements, want.OrderStallCycles, want.MaxQueueDepth)
			}
			if got.Fires != res.Fired || got.Runs != 1 || got.Cycles != res.Cycles {
				t.Errorf("%s: stamped %d runs, %d cycles, %d fires; the run %d cycles, %d fires", key,
					got.Runs, got.Cycles, got.Fires, res.Cycles, res.Fired)
			}
		}
	}
}
