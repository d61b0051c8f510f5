package trace

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// Series returns the per-cycle counter buckets and their width in cycles:
// what the JSON export writes, as these tests read it.
func (t *Tracer) Series() ([]Bucket, int64) {
	if t == nil {
		return nil, 0
	}
	return t.buckets, t.cfg.SampleInterval
}

// TestDisabledTracerZeroAlloc: the disabled state is a nil *Tracer, and
// every method on it must return without allocating — the zero-cost
// contract the simulators rely on in their hot paths.
func TestDisabledTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Event(10, KindToken, 3, 2, 0)
		tr.Event(10, KindOverflow, 3, 0, 0)
		tr.Event(11, KindSwap, 4, 0, 0)
		tr.Event(12, KindFire, 5, 0, 1)
		tr.Place(0, 7, 5)
		tr.NetMsg(13, true)
		tr.LinkHop(13, 4)
		tr.Event(14, KindMemSubmit, -1, 2, 0)
		tr.Event(15, KindMemIssue, -1, 1, 3)
		tr.Event(16, KindWaveDone, -1, 0, 2)
		tr.Event(17, KindRetry, 6, 32, 0)
		tr.Event(17, KindDrop, 6, 0, 0)
		tr.Event(18, KindKill, 9, 0, 0)
		tr.SetMetrics(&Metrics{})
		_ = tr.EventsDropped()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocated %.1f per run, want 0", allocs)
	}
}

// drive feeds a deterministic synthetic event mix into tr.
func drive(tr *Tracer) {
	rng := rand.New(rand.NewSource(99))
	for cy := int64(0); cy < 500; cy++ {
		pe := rng.Intn(16)
		tr.Event(cy, KindToken, pe, int64(rng.Intn(8)), 0)
		if cy%3 == 0 {
			tr.Event(cy, KindFire, pe, int64(pe/8), int64((pe/2)%4))
		}
		if cy%17 == 0 {
			tr.Event(cy, KindSwap, pe, 0, 0)
		}
		if cy%29 == 0 {
			tr.Event(cy, KindOverflow, pe, 0, 0)
		}
		mesh := cy%4 == 3
		tr.NetMsg(cy, mesh)
		if mesh {
			tr.LinkHop(cy, cy%3)
		}
		if cy%5 == 0 {
			tr.Event(cy, KindMemSubmit, -1, int64(rng.Intn(6)), 0)
		}
		if cy%7 == 0 {
			tr.Event(cy, KindMemIssue, -1, 1, cy%11)
		}
		if cy%31 == 0 {
			tr.Event(cy, KindDrop, pe, 0, 0)
			tr.Event(cy, KindRetry, pe, 16, 0)
		}
		if cy == 250 {
			tr.Event(cy, KindKill, 3, 0, 0)
			tr.Event(cy, KindWaveDone, -1, 0, 4)
			tr.Place(0, 12, pe)
		}
	}
}

// TestMetricsCounting: the per-cycle series counts the driven mix, and the
// tracer reports the run's Metrics exactly as the simulator stamped them —
// it counts none of them itself.
func TestMetricsCounting(t *testing.T) {
	tr := New(Config{Events: true})
	drive(tr)
	if m := tr.Metrics(); !reflect.DeepEqual(*m, Metrics{}) {
		t.Errorf("a tracer counted metrics of its own: %+v", m)
	}
	buckets, interval := tr.Series()
	if interval != 64 || len(buckets) != 8 {
		t.Fatalf("series: %d buckets, interval %d", len(buckets), interval)
	}
	var sum Bucket
	for _, b := range buckets {
		sum.Fires += b.Fires
		sum.Tokens += b.Tokens
		sum.MeshMsgs += b.MeshMsgs
		sum.LinkStall += b.LinkStall
		sum.MemIssues += b.MemIssues
		sum.OrderStall += b.OrderStall
		sum.MaxQueue = max(sum.MaxQueue, b.MaxQueue)
		sum.MaxPending = max(sum.MaxPending, b.MaxPending)
	}
	// 500 cycles: a fire every 3rd, a mesh message every 4th (stalling
	// cy%3), a memory issue every 7th (stalling cy%11).
	var stall, order int64
	for cy := int64(3); cy < 500; cy += 4 {
		stall += cy % 3
	}
	for cy := int64(0); cy < 500; cy += 7 {
		order += cy % 11
	}
	want := Bucket{Fires: 167, Tokens: 500, MeshMsgs: 125, LinkStall: stall, MemIssues: 72, OrderStall: order,
		MaxQueue: 7, MaxPending: 5}
	if sum != want {
		t.Errorf("series sums %+v, want %+v", sum, want)
	}

	stamped := &Metrics{Runs: 1, Cycles: 500, Fires: 167, PEFires: []uint64{167}}
	tr.SetMetrics(stamped)
	if got := tr.Metrics(); !reflect.DeepEqual(got, stamped) {
		t.Errorf("Metrics() = %+v, want the stamped %+v", got, stamped)
	}
}

// TestJSONLDeterministicAndValid: two identically-driven tracers export
// byte-identical JSONL, and every line is a well-formed JSON object.
func TestJSONLDeterministicAndValid(t *testing.T) {
	var a, b bytes.Buffer
	ta := New(Config{Events: true})
	tb := New(Config{Events: true})
	drive(ta)
	drive(tb)
	if err := ta.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := tb.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 {
		t.Fatal("empty JSONL export")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical runs exported different JSONL")
	}
	for i, line := range strings.Split(strings.TrimRight(a.String(), "\n"), "\n") {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
		if _, ok := obj["t"]; !ok {
			t.Fatalf("line %d missing \"t\": %s", i+1, line)
		}
		if _, ok := obj["ev"]; !ok {
			t.Fatalf("line %d missing \"ev\": %s", i+1, line)
		}
	}
}

// TestEveryKindHasExportNames: every event kind has a name, and every kind
// that carries a payload exports it under a field name — the JSONL writer
// omits an unnamed payload silently, which is how the four speculation kinds
// once lost theirs. A kind added without a row in kinds fails here
// (payload-free kinds are listed by hand).
func TestEveryKindHasExportNames(t *testing.T) {
	payloadFree := map[Kind]bool{KindSwap: true, KindOverflow: true, KindDrop: true, KindKill: true}
	seen := map[string]Kind{}
	for k := Kind(0); k < numKinds; k++ {
		name := kinds[k].name
		if name == "" {
			t.Errorf("kind %d has no name", k)
		} else if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
		if names := [2]string{kinds[k].a, kinds[k].b}; payloadFree[k] != (names == [2]string{}) || (names[0] == "" && names[1] != "") {
			t.Errorf("kind %s: payload field names %q (payload-free: %v)", k, names, payloadFree[k])
		}
	}
	line := string(appendEventJSON(nil, Event{T: 932, Kind: KindSpecIssue, PE: -1, A: 1, B: 3}))
	if want := `{"t":932,"ev":"spec-issue","fwd":1,"lat":3}`; line != want {
		t.Errorf("spec-issue exports %s, want %s", line, want)
	}
}

// TestChromeTraceValidJSON: the Chrome export parses as a trace_event
// JSON document with a non-empty traceEvents array.
func TestChromeTraceValidJSON(t *testing.T) {
	tr := New(Config{Events: true})
	drive(tr)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
	sawCounter, sawInstant := false, false
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "C":
			sawCounter = true
		case "i":
			sawInstant = true
		}
	}
	if !sawCounter || !sawInstant {
		t.Fatalf("want both counter and instant events (counter=%v instant=%v)", sawCounter, sawInstant)
	}
}

// TestEventCapCounted: events beyond MaxEvents are dropped and the drop
// is counted, never silent; the series still sees every call.
func TestEventCapCounted(t *testing.T) {
	tr := New(Config{Events: true, MaxEvents: 10})
	for i := 0; i < 50; i++ {
		tr.Event(int64(i), KindToken, 0, 1, 0)
	}
	if got := len(tr.Events()); got != 10 {
		t.Fatalf("recorded %d events, want cap 10", got)
	}
	if tr.EventsDropped() != 40 {
		t.Fatalf("EventsDropped = %d, want 40", tr.EventsDropped())
	}
	if buckets, _ := tr.Series(); buckets[0].Tokens != 50 {
		t.Fatalf("the series must still count capped events: Tokens = %d", buckets[0].Tokens)
	}
}

// randomMetrics is a seeded counter set for a machine of the given clusters
// and domains per cluster, two PEs a domain, every dense counter filled.
func randomMetrics(seed int64, clusters, domains int) *Metrics {
	rng := rand.New(rand.NewSource(seed))
	m := &Metrics{Runs: 1, Cycles: 200 + seed, MaxQueueDepth: rng.Int63n(9), MaxPending: rng.Int63n(9)}
	m.ClusterFires = make([]uint64, clusters)
	m.DomainFires = make([][]uint64, clusters)
	m.Links = make([][4]LinkUse, clusters)
	for c := range clusters {
		m.DomainFires[c] = make([]uint64, domains)
		for d := range domains {
			for range 2 {
				n := uint64(rng.Intn(50))
				m.PEFires = append(m.PEFires, n)
				m.ClusterFires[c] += n
				m.DomainFires[c][d] += n
				m.Fires += n
			}
		}
		for dir := range 4 {
			u := LinkUse{Msgs: uint64(rng.Intn(20)), StallCycles: uint64(rng.Intn(5))}
			m.Links[c][dir] = u
			m.MeshHops += u.Msgs
			m.LinkStallCycles += u.StallCycles
		}
	}
	m.OrderStallCycles = uint64(rng.Intn(1000))
	return m
}

// TestAggregateMergeCommutative: merging run metrics in any order yields
// the same merged set and summary — the property that makes experiment
// summaries worker-count invariant — even when the runs' dense counters
// have different shapes, and a snapshot shares no storage with the
// aggregate.
func TestAggregateMergeCommutative(t *testing.T) {
	// Each run sees a different machine shape, so the merged slices hold
	// slots some runs never had.
	a, b, c := randomMetrics(1, 2, 4), randomMetrics(2, 3, 3), randomMetrics(3, 4, 2)
	ag1, ag2 := NewAggregate(), NewAggregate()
	for _, m := range []*Metrics{a, b, c} {
		ag1.Merge(m)
	}
	for _, m := range []*Metrics{c, a, b} {
		ag2.Merge(m)
	}
	s1, s2 := ag1.Snapshot(), ag2.Snapshot()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("merge order changed the merged set:\n%+v\nvs\n%+v", s1, s2)
	}
	if r1, r2 := ag1.Summary("x").Render(), ag2.Summary("x").Render(); r1 != r2 {
		t.Fatalf("merge order changed summary:\n%s\nvs\n%s", r1, r2)
	}
	// Element-wise: every slot is the sum of the runs that had it.
	for cl := range s1.DomainFires {
		for d, n := range s1.DomainFires[cl] {
			var want uint64
			for _, m := range []*Metrics{a, b, c} {
				if cl < len(m.DomainFires) && d < len(m.DomainFires[cl]) {
					want += m.DomainFires[cl][d]
				}
			}
			if n != want {
				t.Errorf("DomainFires[%d][%d] = %d, want %d", cl, d, n, want)
			}
		}
	}
	if ag1.Runs() != 3 {
		t.Fatalf("Runs = %d, want 3", ag1.Runs())
	}

	// A snapshot is a deep copy: merging more must not reach it.
	before := s1.DomainFires[0][0]
	ag1.Merge(a)
	if s1.DomainFires[0][0] != before {
		t.Error("Snapshot shares DomainFires with the aggregate")
	}
	ag1.Reset()
	if ag1.Runs() != 0 {
		t.Fatal("Reset did not clear the aggregate")
	}
}
