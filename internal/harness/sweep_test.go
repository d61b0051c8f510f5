package harness

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"wavescalar/internal/fault"
	"wavescalar/internal/stats"
	"wavescalar/internal/wavecache"
)

// sweepSet is two small programs with a memory loop each, so that grid
// size and swap penalty both move their cycle counts.
func sweepSet(t *testing.T) []*Compiled {
	t.Helper()
	var set []*Compiled
	for _, p := range []struct{ name, src string }{
		{"sum", `
global a[32];
func main() {
	var s = 0;
	for var i = 0; i < 64; i = i + 1 {
		a[i & 31] = a[(i + 3) & 31] + i;
		s = (s + a[i & 31]) & 0xFFFF;
	}
	return s;
}`},
		{"mix", `
global b[16];
func main() {
	var x = 5;
	for var i = 0; i < 40; i = i + 1 {
		if x & 1 { x = x * 3 + 1; } else { x = x / 2 + b[i & 15]; }
		b[i & 15] = x & 255;
	}
	return x;
}`},
	} {
		c, err := CompileSource(p.name, p.src, DefaultCompileOptions())
		if err != nil {
			t.Fatal(err)
		}
		set = append(set, c)
	}
	return set
}

// sweepPoints builds three points in a loop, the way the experiments do:
// each has its own grid (opt) and swap penalty (edit). ran receives the
// configuration each cell ran with.
func sweepPoints(ran func(label string, cfg wavecache.Config)) []point {
	var points []point
	for i, label := range []string{"p0", "p1", "p2"} {
		points = append(points, point{label: label,
			opt: func(o *MachineOptions) { o.GridW, o.GridH, o.PEStore = i+1, 1, 4 },
			edit: func(cfg *wavecache.Config) {
				cfg.SwapPenalty = int64(10 * (i + 1))
				ran(label, *cfg)
			}})
	}
	return points
}

// TestSweepCellsLandAtBenchPoint: res[bench][point] is the run of that
// bench's binary on the machine that point's opt and edit — and no other
// point's — describe.
func TestSweepCellsLandAtBenchPoint(t *testing.T) {
	set := sweepSet(t)
	var mu sync.Mutex
	ran := map[string][]wavecache.Config{}
	points := sweepPoints(func(label string, cfg wavecache.Config) {
		mu.Lock()
		defer mu.Unlock()
		ran[label] = append(ran[label], cfg)
	})
	m := DefaultMachineOptions()
	m.Workers = 3
	res, err := sweep(set, m, points)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(set) {
		t.Fatalf("%d result rows for %d benches", len(res), len(set))
	}
	for pi, p := range points {
		if len(ran[p.label]) != len(set) {
			t.Errorf("%s: edit ran %d times, want once per bench", p.label, len(ran[p.label]))
		}
		for _, cfg := range ran[p.label] {
			if cfg.Machine.GridW != pi+1 || cfg.SwapPenalty != int64(10*(pi+1)) {
				t.Errorf("%s ran on a %d-wide grid with swap penalty %d: another point's opt or edit reached it",
					p.label, cfg.Machine.GridW, cfg.SwapPenalty)
			}
		}
	}
	for bi, c := range set {
		if len(res[bi]) != len(points) {
			t.Fatalf("%s: %d results for %d points", c.Name, len(res[bi]), len(points))
		}
		seen := map[int64]string{}
		for pi, p := range points {
			opt := m
			opt.GridW, opt.GridH, opt.PEStore = pi+1, 1, 4
			want, err := runWaveWith(c, c.Wave, opt, func(cfg *wavecache.Config) { cfg.SwapPenalty = int64(10 * (pi + 1)) })
			if err != nil {
				t.Fatal(err)
			}
			got := res[bi][pi]
			if got.Cycles != want.Cycles || got.Fired != want.Fired || got.Swaps != want.Swaps {
				t.Errorf("res[%s][%s] = %d cycles, %d fired, %d swaps; a direct run gives %d, %d, %d",
					c.Name, p.label, got.Cycles, got.Fired, got.Swaps, want.Cycles, want.Fired, want.Swaps)
			}
			// The comparison above only discriminates if the points differ.
			if other, dup := seen[want.Cycles]; dup {
				t.Errorf("%s: points %s and %s both take %d cycles", c.Name, other, p.label, want.Cycles)
			}
			seen[want.Cycles] = p.label
		}
	}
}

// TestE9SelectColumnIsTheSelectRun: E9's select columns are a direct run
// of WaveSel both where WaveSel is simulated (lu) and where the steer cell
// is copied (fft: nothing if-converted, WaveSel == Wave).
func TestE9SelectColumnIsTheSelectRun(t *testing.T) {
	set := quickSet(t)
	if set[0].WaveSel == set[0].Wave || set[1].WaveSel != set[1].Wave {
		t.Fatal("quickSet no longer has one bench with an if converted and one with nothing if-converted")
	}
	m := quickMachine()
	tbl, err := runE9(set, m)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range set {
		steer, err := runWaveWith(c, c.Wave, m)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := runWaveWith(c, c.WaveSel, m)
		if err != nil {
			t.Fatal(err)
		}
		row := tbl.Rows[i]
		want := []string{c.Name,
			stats.FormatFloat(AIPC(c.UsefulInstrs, steer.Cycles)), stats.FormatFloat(AIPC(c.UsefulInstrs, sel.Cycles)),
			fmt.Sprint(c.Wave.NumInstrs()), fmt.Sprint(c.WaveSel.NumInstrs()), fmt.Sprint(steer.Fired), fmt.Sprint(sel.Fired)}
		if !slices.Equal(row, want) {
			t.Errorf("E9 row %v, direct runs give %v", row, want)
		}
		// A swapped column only shows where the two binaries differ.
		if c.WaveSel != c.Wave && steer.Fired == sel.Fired {
			t.Errorf("%s: steer and select both fire %d instructions", c.Name, sel.Fired)
		}
	}
}

// TestSweepReturnsBenchMajorError: with the first bench failing only at
// the last point and the second bench at every point, the error returned
// is the first bench's — the cell declared first — at any worker count.
func TestSweepReturnsBenchMajorError(t *testing.T) {
	set := sweepSet(t)
	wrong := *set[1]
	wrong.Checksum++
	set[1] = &wrong
	points := sweepPoints(func(string, wavecache.Config) {})
	trip := points[2].opt
	points[2].opt = func(o *MachineOptions) { trip(o); o.MaxCycles = 1 }
	for _, workers := range []int{1, 4} {
		m := DefaultMachineOptions()
		m.Workers = workers
		_, err := sweep(set, m, points)
		var fe *fault.FaultError
		if !errors.As(err, &fe) || fe.Kind != fault.KindWatchdog || !strings.HasPrefix(err.Error(), "sum/p2: ") {
			t.Errorf("workers=%d: got %v, want sum/p2's watchdog abort", workers, err)
		}
	}
}

// TestSweepCancelled: a cancelled MachineOptions.Ctx comes back as the
// context's error, not as a table of zero results.
func TestSweepCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := DefaultMachineOptions()
	m.Ctx = ctx
	res, err := sweep(sweepSet(t), m, sweepPoints(func(string, wavecache.Config) {}))
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Errorf("cancelled sweep returned %v, %v", res, err)
	}
}

// TestCellsClaimHeaviestFirst: the pool claims cells by their bench's useful
// instruction count, heaviest first and ties in declaration order, while
// one worker keeps declaration order; and the error returned is the
// lowest-declared failure even when a heavier cell declared later failed
// first and stopped the claims.
func TestCellsClaimHeaviestFirst(t *testing.T) {
	bench := func(w int64) *Compiled { return &Compiled{UsefulInstrs: w} }
	cs := &cellSet{workers: 4, ctx: context.Background()}
	for _, w := range []int64{3, 5, 5, 1, 5} {
		cs.add(bench(w), func() error { return nil })
	}
	if got, want := cs.claimOrder(), []int{1, 2, 4, 0, 3}; !slices.Equal(got, want) {
		t.Errorf("claim order %v, want %v", got, want)
	}
	cs.workers = 1
	if got, want := cs.claimOrder(), []int{0, 1, 2, 3, 4}; !slices.Equal(got, want) {
		t.Errorf("one worker claims %v, want declaration order %v", got, want)
	}

	for _, workers := range []int{1, 2} {
		cs := &cellSet{workers: workers, ctx: context.Background()}
		first := errors.New("first declared")
		var ran sync.Map
		for i, w := range []int64{1, 9, 9} {
			cs.add(bench(w), func() error {
				ran.Store(i, true)
				if i == 0 {
					return first
				}
				return fmt.Errorf("cell %d", i)
			})
		}
		if err := cs.run(); err != first {
			t.Errorf("workers=%d: got %v, want the first declared cell's error", workers, err)
		}
		if _, ok := ran.Load(0); !ok {
			t.Errorf("workers=%d: the first declared cell never ran", workers)
		}
	}
}
