package wavecache

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"wavescalar/internal/fault"
	"wavescalar/internal/lang"
	"wavescalar/internal/placement"
	"wavescalar/internal/testprogs"
	"wavescalar/internal/trace"
)

// specConflictSrc is a hand-built violation workload: the store's value
// and address hang off a long scalar chain, while the summation loads
// below it have constant addresses whose requests reach the store buffer
// long before the store resolves. Under MemSpec those loads speculate,
// the store then commits over one of their addresses, and the first
// load to validate catches the intervening committed store — squashing
// the epoch and replaying its remaining speculations in order.
const specConflictSrc = `global a[16];
func main() {
	for var i = 0; i < 16; i = i + 1 { a[i] = i + 1; }
	var x = 12345;
	for var i = 0; i < 60; i = i + 1 { x = (x * 48271) % 2147483647; }
	var k = x % 2;
	a[k] = 7;
	var s = a[0] + a[1] + a[2] + a[3];
	return s + k;
}`

// specForwardSrc targets the versioned-store-buffer forwarding path: the
// a[j] store at the head of the wave resolves last, so the cheap a[1]
// store behind it buffers and speculates into the versioned store
// buffer, and the a[1] load behind that speculates and forwards from it.
// j lands in {4, 5}, so the slow store never collides and the forward
// validates cleanly at commit.
const specForwardSrc = `global a[16];
func main() {
	var x = 12345;
	for var i = 0; i < 60; i = i + 1 { x = (x * 48271) % 2147483647; }
	var j = x % 2 + 4;
	a[j] = x;
	a[1] = 42;
	var y = a[1];
	return y * 10 + a[j] % 100;
}`

// specRun executes src under the given memory mode, returning the result
// and a copy of the final memory image.
func specRun(t *testing.T, src string, mode MemoryMode) (Result, []int64) {
	t.Helper()
	wp := compileSource(t, src)
	cfg := DefaultConfig(2, 2)
	cfg.MemMode = mode
	a := NewArena()
	res, err := a.Run(wp, mustPol(placement.NewDynamicSnake(cfg.Machine)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, append([]int64(nil), a.s.memImage...)
}

// TestSpecDeterministicReplay pins the squash-and-replay path end to
// end: the conflict workload must squash exactly one epoch, replay a
// fixed number of speculations, produce the program-order result and
// memory image, and repeat all of it bit-for-bit on a second run.
func TestSpecDeterministicReplay(t *testing.T) {
	f, err := lang.ParseAndCheck(specConflictSrc)
	if err != nil {
		t.Fatal(err)
	}
	ev := lang.NewEvaluator(f, 0)
	want, err := ev.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantMem := ev.Memory()

	res, mem := specRun(t, specConflictSrc, MemSpec)
	t.Logf("spec stats: %+v", res.Spec)
	if res.Value != want {
		t.Fatalf("value %d, want %d", res.Value, want)
	}
	for i := range wantMem {
		if mem[i] != wantMem[i] {
			t.Fatalf("memory[%d] = %d, want %d", i, mem[i], wantMem[i])
		}
	}
	if res.Spec.Squashes != 1 {
		t.Errorf("Squashes = %d, want exactly 1", res.Spec.Squashes)
	}
	if res.Spec.Conflicts != 1 {
		t.Errorf("Conflicts = %d, want exactly 1", res.Spec.Conflicts)
	}
	if res.Spec.ReplayedOps != 3 {
		t.Errorf("ReplayedOps = %d, want 3 (the conflicting load plus the two still-speculative ones)",
			res.Spec.ReplayedOps)
	}
	if res.Spec.ReplayCycles == 0 {
		t.Error("replayed ops charged no cycles")
	}

	// Byte-for-byte repeatability: a second run is the same struct, down
	// to every counter.
	res2, mem2 := specRun(t, specConflictSrc, MemSpec)
	if !reflect.DeepEqual(res, res2) {
		t.Fatalf("replay run not deterministic:\n%+v\n%+v", res, res2)
	}
	if !reflect.DeepEqual(mem, mem2) {
		t.Fatal("replay memory image not deterministic")
	}

	// And the ordered mode agrees on everything architectural.
	resO, memO := specRun(t, specConflictSrc, MemOrdered)
	if resO.Value != res.Value || !reflect.DeepEqual(mem, memO) {
		t.Fatal("spec and wave-ordered disagree on architectural state")
	}
}

// TestSpecStoreForwarding pins the clean forwarding path: a speculative
// load served out of the versioned store buffer validates at commit
// (the forwarding store is still the last committer) and nothing
// squashes.
func TestSpecStoreForwarding(t *testing.T) {
	want, err := lang.EvalProgram(specForwardSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := specRun(t, specForwardSrc, MemSpec)
	t.Logf("spec stats: %+v", res.Spec)
	if res.Value != want {
		t.Fatalf("value %d, want %d", res.Value, want)
	}
	if res.Spec.Forwards == 0 {
		t.Errorf("no loads forwarded from the versioned store buffer: %+v", res.Spec)
	}
	if res.Spec.Conflicts != 0 || res.Spec.Squashes != 0 {
		t.Errorf("clean forward workload conflicted: %+v", res.Spec)
	}

	// The exported event stream carries each speculation's payload: one
	// spec-issue line per speculated request, each with its latency, the
	// forwarded ones flagged.
	cfg := DefaultConfig(2, 2)
	cfg.MemMode = MemSpec
	cfg.Tracer = trace.New(trace.Config{Events: true})
	traced, err := Run(compileSource(t, specForwardSrc), mustPol(placement.NewDynamicSnake(cfg.Machine)), cfg)
	if err != nil || traced != res {
		t.Fatalf("traced run: %+v, %v; untraced %+v", traced, err, res)
	}
	var jsonl bytes.Buffer
	if err := cfg.Tracer.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	var issued, forwarded uint64
	for _, line := range strings.Split(jsonl.String(), "\n") {
		if !strings.Contains(line, `"ev":"spec-issue"`) {
			continue
		}
		issued++
		if !strings.Contains(line, `"lat":`) {
			t.Fatalf("spec-issue line lost its latency: %s", line)
		}
		if strings.Contains(line, `"fwd":1`) {
			forwarded++
		}
	}
	if issued != res.Spec.Issued || forwarded != res.Spec.Forwards {
		t.Errorf("event stream has %d spec-issue lines, %d forwarded; the run counted %d, %d",
			issued, forwarded, res.Spec.Issued, res.Spec.Forwards)
	}
}

// TestSpecRecoversFromPEKill: a mid-run PE kill under MemSpec — the
// recovery machinery interacting with in-flight speculation — yields the
// program-order result, and the faulty run repeats bit-for-bit.
func TestSpecRecoversFromPEKill(t *testing.T) {
	src := testprogs.Heavy[1].Src
	want, err := lang.EvalProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	fc := fault.Config{Seed: 11, KillPE: 0, KillCycle: 500}
	run := func() Result {
		wp := compileSource(t, src)
		cfg := DefaultConfig(2, 2)
		cfg.MemMode = MemSpec
		cfg.Faults = fc
		cfg.MaxCycles = 20_000_000
		cfg.Machine.Defective = fault.DefectMap(fc, cfg.Machine.NumPEs())
		res, err := Run(wp, mustPol(placement.NewDynamicSnake(cfg.Machine)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run()
	if base.Value != want {
		t.Fatalf("value %d, want %d", base.Value, want)
	}
	if base.Faults.PEKills != 1 {
		t.Fatalf("no PE killed: %+v", base.Faults)
	}
	if base.Spec.Issued == 0 {
		t.Errorf("workload never speculated; test is vacuous: %+v", base.Spec)
	}
	if res := run(); !reflect.DeepEqual(base, res) {
		t.Fatalf("spec run under PE kill not deterministic:\n%+v\n%+v", base, res)
	}
}

// TestSpecWatchdogDumpIncludesSpeculation: a watchdog abort under
// MemSpec must render the speculation subsystem (in-flight epochs,
// squash streak, totals) in its diagnostic dump.
func TestSpecWatchdogDumpIncludesSpeculation(t *testing.T) {
	wp := compileSource(t, testprogs.Heavy[1].Src)
	cfg := DefaultConfig(2, 2)
	cfg.MemMode = MemSpec
	cfg.MaxCycles = 300
	_, err := Run(wp, mustPol(placement.NewDynamicSnake(cfg.Machine)), cfg)
	if err == nil {
		t.Fatal("expected watchdog abort")
	}
	dump := err.Error()
	for _, want := range []string{"speculation state", "epochs in flight", "squash streak"} {
		if !strings.Contains(dump, want) {
			t.Errorf("watchdog dump missing %q:\n%s", want, dump)
		}
	}
}

// TestSpecMatchesEvaluatorOnCorpus: MemSpec preserves functional results
// and memory images across the whole corpus — values never come from
// speculation, so this holds whatever the conflict pattern.
func TestSpecMatchesEvaluatorOnCorpus(t *testing.T) {
	for _, c := range testprogs.Corpus {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			f, err := lang.ParseAndCheck(c.Src)
			if err != nil {
				t.Fatal(err)
			}
			ev := lang.NewEvaluator(f, 0)
			want, err := ev.Run()
			if err != nil {
				t.Fatal(err)
			}
			wantMem := ev.Memory()
			res, mem := specRun(t, c.Src, MemSpec)
			if res.Value != want {
				t.Fatalf("value %d, want %d", res.Value, want)
			}
			for i := range wantMem {
				if mem[i] != wantMem[i] {
					t.Fatalf("memory[%d] = %d, want %d", i, mem[i], wantMem[i])
				}
			}
		})
	}
}
