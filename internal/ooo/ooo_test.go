package ooo

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"wavescalar/internal/cfgir"
	"wavescalar/internal/lang"
	"wavescalar/internal/linear"
	"wavescalar/internal/noc"
	"wavescalar/internal/testprogs"
)

func compileSource(t testing.TB, src string) *linear.Program {
	t.Helper()
	p, _, _, err := cfgir.FromSource(src, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := linear.Compile(p)
	if err != nil {
		t.Fatalf("linear: %v", err)
	}
	return lp
}

// TestResultsMatchEvaluator checks the timing model never perturbs
// functional results (it is trace-driven, so this guards the plumbing).
func TestResultsMatchEvaluator(t *testing.T) {
	for _, c := range testprogs.Corpus {
		want, err := lang.EvalProgram(c.Src)
		if err != nil {
			t.Fatal(err)
		}
		lp := compileSource(t, c.Src)
		res, err := Run(lp, DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if res.Value != want {
			t.Errorf("%s: value %d, want %d", c.Name, res.Value, want)
		}
		if res.Cycles <= 0 || res.Instrs == 0 {
			t.Errorf("%s: cycles=%d instrs=%d", c.Name, res.Cycles, res.Instrs)
		}
		if res.IPC <= 0 || res.IPC > float64(DefaultConfig().CommitWidth) {
			t.Errorf("%s: IPC %.2f outside (0, commit width]", c.Name, res.IPC)
		}
	}
}

func TestBranchPredictionCounting(t *testing.T) {
	lp := compileSource(t, `func main() { var s = 0; for var i = 0; i < 200; i = i + 1 { s = s + i; } return s; }`)
	res, err := Run(lp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Branches < 200 {
		t.Errorf("branches = %d, want >= 200", res.Branches)
	}
	if res.Mispredicts > res.Branches {
		t.Errorf("mispredicts %d exceed branches %d", res.Mispredicts, res.Branches)
	}
	// A highly regular loop should predict well.
	if float64(res.Mispredicts)/float64(res.Branches) > 0.2 {
		t.Errorf("mispredict rate %.2f too high for a simple loop", float64(res.Mispredicts)/float64(res.Branches))
	}
}

func TestMispredictsHurt(t *testing.T) {
	// A data-dependent unpredictable branch pattern should mispredict more
	// than a regular loop and cost cycles.
	// Lehmer generator mod a prime: the low bit is effectively random
	// (unlike an LCG mod 2^k, whose low bits are short-period and which
	// gshare would learn perfectly).
	src := `func main() { var x = 12345; var s = 0; for var i = 0; i < 500; i = i + 1 { x = (x * 48271) % 2147483647; if x % 2 { s = s + 1; } else { s = s - 1; } } return s; }`
	lp := compileSource(t, src)
	res, err := Run(lp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(res.Mispredicts) / float64(res.Branches)
	if rate < 0.1 {
		t.Errorf("random branch mispredict rate %.3f suspiciously low", rate)
	}
}

func TestWiderMachineIsFaster(t *testing.T) {
	src := testprogs.Heavy[2].Src // matmul_8: plenty of ILP
	lp := compileSource(t, src)

	narrow := DefaultConfig()
	narrow.FetchWidth, narrow.IssueWidth, narrow.CommitWidth = 1, 1, 1
	wide := DefaultConfig()

	rn, err := Run(lp, narrow)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := Run(lp, wide)
	if err != nil {
		t.Fatal(err)
	}
	if rn.Value != rw.Value {
		t.Fatalf("width changed the answer: %d vs %d", rn.Value, rw.Value)
	}
	if rw.Cycles >= rn.Cycles {
		t.Errorf("8-wide (%d cycles) not faster than scalar (%d cycles)", rw.Cycles, rn.Cycles)
	}
	if rn.IPC > 1.01 {
		t.Errorf("scalar machine IPC %.2f > 1", rn.IPC)
	}
}

func TestSmallROBThrottles(t *testing.T) {
	lp := compileSource(t, testprogs.Heavy[2].Src)
	big := DefaultConfig()
	small := DefaultConfig()
	small.ROBSize = 4
	rb, err := Run(lp, big)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(lp, small)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Cycles <= rb.Cycles {
		t.Errorf("ROB=4 (%d cycles) not slower than ROB=256 (%d cycles)", rs.Cycles, rb.Cycles)
	}
}

func TestForwardingHappens(t *testing.T) {
	src := "global a[4];\nfunc main() { var s = 0; for var i = 0; i < 100; i = i + 1 { a[0] = i; s = s + a[0]; } return s; }"
	lp := compileSource(t, src)
	res, err := Run(lp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Forwards == 0 {
		t.Error("no store-to-load forwarding on an obvious pattern")
	}
}

func TestGshareMechanics(t *testing.T) {
	g := newGshare(4)
	// Train: always taken at one PC.
	for i := 0; i < 8; i++ {
		g.update(5, true)
	}
	// After training with interleaved history the counter for the current
	// index should lean taken more often than not.
	taken := 0
	for i := 0; i < 8; i++ {
		if g.predict(5) {
			taken++
		}
		g.update(5, true)
	}
	if taken < 6 {
		t.Errorf("gshare predicted taken only %d/8 times after training", taken)
	}
}

func TestCapSchedule(t *testing.T) {
	s := newCapSchedule(2)
	if s.reserve(10) != 10 || s.reserve(10) != 10 {
		t.Error("first two reservations should land on cycle 10")
	}
	if s.reserve(10) != 11 {
		t.Error("third reservation should spill to cycle 11")
	}
}

// TestCapScheduleDifferential pins the windowed capSchedule against a
// naive per-cycle-count reference on pseudo-random request streams shaped
// like the core's: a rising watermark (dispatch), prune called at random
// points, requests at or above the last pruned watermark — mostly near it,
// some hundreds of cycles ahead, as loads behind DRAM misses are. The
// window must stay as long as the farthest grant is ahead of the pruned
// watermark, give or take its power-of-two rounding. noc.Port, the core's
// fetch and commit grant, is pinned against capSchedule on monotone streams
// (the only streams it is specified for).
func TestCapScheduleDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		width := 1 + rng.Intn(4)
		s := newCapSchedule(width)
		counts := map[int64]int{} // reference: linear scan over exact counts
		var watermark, pruned, span int64
		for i := 0; i < 5000; i++ {
			watermark += int64(rng.Intn(2))
			if rng.Intn(4) == 0 {
				s.prune(watermark)
				pruned = watermark
			}
			req := pruned + int64(rng.Intn(40))
			if rng.Intn(50) == 0 {
				req += 300 + int64(rng.Intn(700))
			}
			want := req
			for counts[want] >= width {
				want++
			}
			counts[want]++
			if got := s.reserve(req); got != want {
				t.Fatalf("trial %d req %d: capSchedule granted %d, reference %d", trial, req, got, want)
			}
			span = max(span, want-pruned)
			if n := int64(len(s.cells)); n > max(256, 2*span) {
				t.Fatalf("trial %d: a %d-cell window for grants at most %d cycles past the watermark", trial, n, span)
			}
		}
	}
	for trial := 0; trial < 20; trial++ {
		width := 1 + rng.Intn(4)
		var p noc.Port
		s := newCapSchedule(width)
		req := int64(0)
		for i := 0; i < 5000; i++ {
			req += int64(rng.Intn(3)) // monotone non-decreasing
			got, want := p.Grant(req, int64(width)), s.reserve(req)
			if got != want {
				t.Fatalf("trial %d req %d: noc.Port granted %d, capSchedule %d", trial, req, got, want)
			}
		}
	}
}

// TestRunAllocsDoNotGrowWithTrace: the timing state lives in fixed or
// windowed structures — port schedules pruned at dispatch, a ring LSQ — so
// one loop run for 500 and for 5,000 iterations allocates the same.
func TestRunAllocsDoNotGrowWithTrace(t *testing.T) {
	var allocs [2]float64
	for i, n := range []int{500, 5000} {
		lp := compileSource(t, fmt.Sprintf("global a[16];\nfunc main() { var s = 0; for var i = 0; i < %d; i = i + 1 { a[i %% 16] = s; s = s + a[(i * 7) %% 16] * 3; } return s; }", n))
		allocs[i] = testing.AllocsPerRun(3, func() {
			if _, err := Run(lp, DefaultConfig()); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[0] != allocs[1] {
		t.Errorf("a run allocates %v times at 500 iterations, %v at 5,000", allocs[0], allocs[1])
	}
}

// TestConcurrentRunsShareProgram exercises the concurrency contract on
// Run: many simulations of ONE *linear.Program running concurrently must
// neither race (run under -race) nor diverge — the program is read-only,
// so every run must produce a bit-identical Result.
func TestConcurrentRunsShareProgram(t *testing.T) {
	lp := compileSource(t, testprogs.Heavy[1].Src) // sort_64
	const runs = 8
	results := make([]Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = Run(lp, DefaultConfig())
		}()
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("run %d diverged:\n%+v\nwant\n%+v", i, results[i], results[0])
		}
	}
}

func BenchmarkOoOMatmul(b *testing.B) {
	lp := compileSource(b, testprogs.Heavy[2].Src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(lp, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
