package trace

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestDisabledTracerZeroAlloc: the disabled state is a nil *Tracer, and
// every method on it must return without allocating — the zero-cost
// contract the simulators rely on in their hot paths.
func TestDisabledTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Token(10, 3, 2)
		tr.Overflow(10, 3)
		tr.Swap(11, 4)
		tr.Fire(12, 5, 0, 1)
		tr.Place(0, 7, 5)
		tr.NetMsg(13, LevelMesh)
		tr.LinkHop(13, 2, 1, 4)
		tr.MemSubmit(14, 2)
		tr.MemIssue(15, 1, 3)
		tr.WaveDone(16, 0, 2)
		tr.Retry(17, 6, 32)
		tr.Drop(17, 6)
		tr.Kill(18, 9)
		tr.Finish(100)
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
		tr.Token(cy, pe, rng.Intn(8))
		if cy%3 == 0 {
			tr.Fire(cy, pe, pe/8, (pe/2)%4)
		}
		if cy%17 == 0 {
			tr.Swap(cy, pe)
		}
		if cy%29 == 0 {
			tr.Overflow(cy, pe)
		}
		tr.NetMsg(cy, int(cy%4))
		if cy%4 == LevelMesh {
			tr.LinkHop(cy, pe/2, int(cy)%4, cy%3)
		}
		if cy%5 == 0 {
			tr.MemSubmit(cy, rng.Intn(6))
		}
		if cy%7 == 0 {
			tr.MemIssue(cy, 1, cy%11)
		}
		if cy%31 == 0 {
			tr.Drop(cy, pe)
			tr.Retry(cy, pe, 16)
		}
		if cy == 250 {
			tr.Kill(cy, 3)
			tr.WaveDone(cy, 0, 4)
			tr.Place(0, 12, pe)
		}
	}
	tr.Finish(500)
}

// TestMetricsCounting: counters reflect the driven mix.
func TestMetricsCounting(t *testing.T) {
	tr := New(Config{Events: true})
	drive(tr)
	m := tr.Metrics()
	if m.Tokens != 500 {
		t.Errorf("Tokens = %d, want 500", m.Tokens)
	}
	if m.Fires == 0 || m.Swaps == 0 || m.Overflows == 0 {
		t.Errorf("zero fire/swap/overflow counters: %+v", m)
	}
	var sum uint64
	for _, f := range m.PEFires {
		sum += f
	}
	if sum != m.Fires {
		t.Errorf("PEFires sum %d != Fires %d", sum, m.Fires)
	}
	sum = 0
	for _, f := range m.ClusterFires {
		sum += f
	}
	if sum != m.Fires {
		t.Errorf("ClusterFires sum %d != Fires %d", sum, m.Fires)
	}
	sum = 0
	for _, doms := range m.DomainFires {
		for _, f := range doms {
			sum += f
		}
	}
	if sum != m.Fires {
		t.Errorf("DomainFires sum %d != Fires %d", sum, m.Fires)
	}
	if m.PodMsgs+m.DomainMsgs+m.ClusterMsgs+m.MeshMsgs != 500 {
		t.Errorf("net msg level counts don't sum to 500: %+v", m)
	}
	if m.MeshHops == 0 || len(m.Links) == 0 {
		t.Errorf("no mesh link accounting: %+v", m)
	}
	if m.Drops != m.Retries || m.Drops == 0 {
		t.Errorf("Drops %d / Retries %d", m.Drops, m.Retries)
	}
	if m.PEKills != 1 || m.WavesDone != 1 || m.Placements != 1 {
		t.Errorf("kills/waves/placements: %+v", m)
	}
	if m.Runs != 1 || m.Cycles != 500 {
		t.Errorf("Finish not recorded: runs %d cycles %d", m.Runs, m.Cycles)
	}
	buckets, interval := tr.Series()
	if interval != 64 || len(buckets) == 0 {
		t.Fatalf("series: %d buckets, interval %d", len(buckets), interval)
	}
	var bt int64
	for _, b := range buckets {
		bt += b.Tokens
	}
	if bt != 500 {
		t.Errorf("bucket token sum %d, want 500", bt)
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
// once lost theirs. A kind added without rows in kindNames and fieldNames
// fails here (payload-free kinds are listed by hand).
func TestEveryKindHasExportNames(t *testing.T) {
	payloadFree := map[Kind]bool{KindSwap: true, KindOverflow: true, KindDrop: true, KindKill: true}
	seen := map[string]Kind{}
	for k := Kind(0); k < numKinds; k++ {
		name := kindNames[k]
		if name == "" {
			t.Errorf("kind %d has no name", k)
		} else if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
		if names := fieldNames[k]; payloadFree[k] != (names == [2]string{}) || (names[0] == "" && names[1] != "") {
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
// is surfaced in the metrics, never silent.
func TestEventCapCounted(t *testing.T) {
	tr := New(Config{Events: true, MaxEvents: 10})
	for i := 0; i < 50; i++ {
		tr.Token(int64(i), 0, 1)
	}
	if got := len(tr.Events()); got != 10 {
		t.Fatalf("recorded %d events, want cap 10", got)
	}
	if tr.Metrics().EventsDropped != 40 {
		t.Fatalf("EventsDropped = %d, want 40", tr.Metrics().EventsDropped)
	}
	if tr.Metrics().Tokens != 50 {
		t.Fatalf("metrics must still count capped events: Tokens = %d", tr.Metrics().Tokens)
	}
}

// TestAggregateMergeCommutative: merging run metrics in any order yields
// the same summary — the property that makes experiment summaries
// worker-count invariant.
func TestAggregateMergeCommutative(t *testing.T) {
	mk := func(seed int64) *Tracer {
		tr := New(Config{})
		rng := rand.New(rand.NewSource(seed))
		for cy := int64(0); cy < 200; cy++ {
			pe := rng.Intn(8)
			tr.Token(cy, pe, rng.Intn(5))
			tr.Fire(cy, pe, pe/4, pe%4)
			tr.LinkHop(cy, pe, pe%4, cy%2)
			tr.MemIssue(cy, 0, cy%5)
		}
		tr.Finish(200)
		return tr
	}
	a, b, c := mk(1), mk(2), mk(3)
	ag1, ag2 := NewAggregate(), NewAggregate()
	ag1.Add(a)
	ag1.Add(b)
	ag1.Add(c)
	ag2.Add(c)
	ag2.Add(a)
	ag2.Add(b)
	s1 := ag1.Summary("x").Render()
	s2 := ag2.Summary("x").Render()
	if s1 != s2 {
		t.Fatalf("merge order changed summary:\n%s\nvs\n%s", s1, s2)
	}
	if ag1.Runs() != 3 {
		t.Fatalf("Runs = %d, want 3", ag1.Runs())
	}
	ag1.Reset()
	if ag1.Runs() != 0 {
		t.Fatal("Reset did not clear the aggregate")
	}
}

// TestCountersOnlyMatchesFullTracer: NewCounters drops the per-cycle
// series and nothing else — an Aggregate fed from it renders the same
// Summary, byte for byte, as one fed from a full tracer.
func TestCountersOnlyMatchesFullTracer(t *testing.T) {
	full, counters := New(Config{}), NewCounters()
	drive(full)
	drive(counters)
	if buckets, _ := counters.Series(); len(buckets) != 0 {
		t.Errorf("counters-only tracer kept a series of %d buckets", len(buckets))
	}
	if len(counters.Events()) != 0 {
		t.Errorf("counters-only tracer recorded %d events", len(counters.Events()))
	}
	a, b := NewAggregate(), NewAggregate()
	a.Add(full)
	b.Add(counters)
	if got, want := b.Summary("x").Render(), a.Summary("x").Render(); got != want {
		t.Errorf("summary from a counters-only tracer differs:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// refCounts is the reference the tracer's dense domain and link counters
// are held to: one keyed map update per call.
type refCounts struct {
	dom   map[[2]int]uint64  // [cluster, domain]
	links map[[2]int]LinkUse // [router, direction]
}

func newRefCounts() *refCounts {
	return &refCounts{dom: map[[2]int]uint64{}, links: map[[2]int]LinkUse{}}
}

// driveRandom feeds tr and ref the same seeded stream of n firings and
// link hops over a machine of the given shape.
func driveRandom(tr *Tracer, ref *refCounts, seed int64, n, clusters, domains int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		tm := int64(i)
		if rng.Intn(3) > 0 {
			c, d := rng.Intn(clusters), rng.Intn(domains)
			tr.Fire(tm, (c*domains+d)*8+rng.Intn(8), c, d)
			ref.dom[[2]int{c, d}]++
		} else {
			k := [2]int{rng.Intn(clusters), rng.Intn(4)}
			stall := int64(rng.Intn(5))
			tr.LinkHop(tm, k[0], k[1], stall)
			u := ref.links[k]
			u.Msgs++
			u.StallCycles += uint64(stall)
			ref.links[k] = u
		}
	}
}

// TestDenseCountersMatchPerCallCounts: Metrics.DomainFires and Metrics.Links
// hold exactly what per-call map updates would — every counted key at its
// index, zero everywhere else — on a read, on a later read after more
// events over a larger machine, and through Aggregate.Add of tracers whose
// slices grew to different shapes.
func TestDenseCountersMatchPerCallCounts(t *testing.T) {
	check := func(what string, m *Metrics, ref *refCounts) {
		t.Helper()
		dom := map[[2]int]uint64{}
		for c, doms := range m.DomainFires {
			for d, n := range doms {
				if n > 0 {
					dom[[2]int{c, d}] = n
				}
			}
		}
		if !reflect.DeepEqual(dom, ref.dom) {
			t.Errorf("%s: DomainFires = %v, want %v", what, dom, ref.dom)
		}
		links := map[[2]int]LinkUse{}
		for r := range m.Links {
			for dir, u := range m.Links[r] {
				if u != (LinkUse{}) {
					links[[2]int{r, dir}] = u
				}
			}
		}
		if !reflect.DeepEqual(links, ref.links) {
			t.Errorf("%s: Links = %v, want %v", what, links, ref.links)
		}
	}
	merged := newRefCounts()
	agg := NewAggregate()
	for seed := int64(1); seed <= 4; seed++ {
		// Each tracer sees a different machine shape, so the merged slices
		// hold slots some tracers never grew.
		clusters, domains := int(seed)+1, 5-int(seed)
		tr := NewCounters()
		ref := newRefCounts()
		driveRandom(tr, ref, seed, 3000, clusters, domains)
		check("first read", tr.Metrics(), ref)
		driveRandom(tr, ref, seed+100, 1000, clusters+1, domains+1)
		check("read after more events", tr.Metrics(), ref)

		agg.Add(tr)
		for k, v := range ref.dom {
			merged.dom[k] += v
		}
		for k, v := range ref.links {
			u := merged.links[k]
			u.Msgs += v.Msgs
			u.StallCycles += v.StallCycles
			merged.links[k] = u
		}
	}
	snap := agg.Snapshot()
	check("aggregate", &snap, merged)

	// A snapshot is a deep copy: counting on in a tracer already merged, or
	// merging more, must not reach it.
	before := snap.DomainFires[0][0]
	late := NewCounters()
	late.Fire(0, 0, 0, 0)
	agg.Add(late)
	if snap.DomainFires[0][0] != before {
		t.Error("Snapshot shares DomainFires with the aggregate")
	}
}

// BenchmarkTracerFire and BenchmarkTracerLinkHop time the two per-event
// counters of a metrics-only tracer (what every served run carries) over a
// 4x4-cluster machine's PEs and links.
func BenchmarkTracerFire(b *testing.B) {
	tr := NewCounters()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pe := i & 511
		tr.Fire(int64(i), pe, pe>>5, pe>>3&3)
	}
}

func BenchmarkTracerLinkHop(b *testing.B) {
	tr := NewCounters()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.LinkHop(int64(i), i>>2&15, i&3, int64(i&1))
	}
}
