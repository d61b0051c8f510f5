package wavecache

import (
	"testing"

	"wavescalar/internal/fault"
	"wavescalar/internal/isa"
	"wavescalar/internal/placement"
	"wavescalar/internal/testprogs"
	"wavescalar/internal/workloads"
)

// bindLoopSrc makes one wave per iteration (compileSource does not unroll),
// each with a store and a load, so a run binds more than 65,536 waves to
// store buffers — more than any kernel or fence cell does. bindCallSrc
// does the same through contexts: at least 77,000 activations, each ending on
// a MemEnd, so the binding of a context's last wave — the one no wave
// completion retires — is on the path too.
const (
	bindLoopSrc = `global a[64];
func main() {
	var s = 0;
	for var i = 0; i < 70000; i = i + 1 {
		a[i & 63] = i;
		var k = (i * 48271) % 2147483647;
		s = (s + a[k & 63]) & 0xFFFFF;
	}
	return s;
}`
	bindCallSrc = `global a[64];
func g(n, x) {
	if n < 1 { return x; }
	a[n & 63] = x;
	return (g(n - 1, x + 1) + a[(n + 7) & 63]) & 0xFFFFF;
}
func main() {
	var s = 0;
	for var i = 0; i < 7000; i = i + 1 { s = g(10 + (s & 1), s); }
	return s;
}`
)

// bindPin is the slice of a Result TestLongRunBindingsPinned freezes:
// which store buffer a wave binds to shows in cycles, in mesh traffic (a
// remote buffer is a mesh message each way) and in coherence transfers (two
// buffers touching one line).
type bindPin struct {
	Value, Cycles                                   int64
	Fired, Tokens                                   uint64
	NetMessages, MeshMsgs, MeshHops, NetStallCycles uint64
	MemAccesses, L1Misses, Transfers                uint64
}

// TestLongRunBindingsPinned pins where the waves of two long runs bind: every
// wave to the cluster of the first PE that sends one of its memory messages,
// for as long as the wave is in flight, however many waves came before — on a
// machine with more than one cluster (random placement spreads these loops
// over all four), so a change to how bindings are kept that rebinds a wave
// moves cycles and network and coherence traffic here. The run must make
// more than 65,536 bindings and retire every one.
func TestLongRunBindingsPinned(t *testing.T) {
	if testing.Short() || raceBuild {
		t.Skip("simulates two 70,000-wave programs in four memory modes")
	}
	for _, row := range []struct {
		name, src string
		mode      MemoryMode
		want      bindPin
	}{
		{"loop", bindLoopSrc, MemOrdered, bindPin{393775, 4411669, 1540015, 1890018, 2030019, 1470012, 2100015, 10092, 140000, 4, 0}},
		{"loop", bindLoopSrc, MemSerial, bindPin{393775, 4441035, 1540015, 1890018, 2030019, 1470012, 2100015, 826394, 140000, 4, 0}},
		{"loop", bindLoopSrc, MemIdeal, bindPin{393775, 4408334, 1540015, 1890018, 2030019, 1470012, 2100015, 3417, 140000, 4, 0}},
		{"loop", bindLoopSrc, MemSpec, bindPin{393775, 4411669, 1540015, 1890018, 2030019, 1470012, 2100015, 10092, 140000, 4, 0}},
		{"calls", bindCallSrc, MemOrdered, bindPin{699042, 6572065, 1813038, 2436049, 2597052, 1953037, 2569048, 1323, 140002, 2, 0}},
		{"calls", bindCallSrc, MemSerial, bindPin{699042, 6572774, 1813038, 2436049, 2597052, 1953037, 2569048, 3408, 140002, 2, 0}},
		{"calls", bindCallSrc, MemIdeal, bindPin{699042, 6509075, 1813038, 2436049, 2597052, 1953037, 2569048, 28690927, 140002, 2, 0}},
		{"calls", bindCallSrc, MemSpec, bindPin{699042, 6509187, 1813038, 2436049, 2597052, 1953037, 2569048, 1441, 140002, 2, 0}},
	} {
		t.Run(row.name+"/"+row.mode.String(), func(t *testing.T) {
			got, w := bindRun(t, row.src, row.mode)
			if got != row.want {
				t.Errorf("pinned result moved:\n got %+v\nwant %+v", got, row.want)
			}
			if w.Bound <= 1<<16 || w.Retired != w.Bound {
				t.Errorf("%d bindings made, %d retired: want more than 65,536, all retired", w.Bound, w.Retired)
			}
		})
	}
}

func bindRun(t *testing.T, src string, mode MemoryMode) (bindPin, Work) {
	t.Helper()
	wp := compileSource(t, src)
	cfg := DefaultConfig(2, 2)
	cfg.MemMode = mode
	a := NewArena()
	res, err := a.Run(wp, mustPol(placement.NewRandom(cfg.Machine, 1)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return bindPin{res.Value, res.Cycles, res.Fired, res.Tokens,
		res.Net.Messages, res.Net.MeshMsgs, res.Net.MeshHops, res.Net.StallCycles,
		res.Mem.Accesses, res.Mem.L1Misses, res.Mem.Transfers}, a.Fence().Work
}

// TestNoMemoryMessageAfterWaveRetires checks the premise the retiring
// bindings rest on: once a wave's chain has issued to its end (or its
// context's MemEnd has), no memory message of that wave is still to be sent,
// so deleting its binding — and MemSpec's epoch bits with it — can never make
// a straggler rebind, possibly elsewhere and with its epoch forgotten. A
// test-only set collects every retired (ctx, wave) and bufferCluster counts
// bindings made for one of them: none, over three kernels, forty generated
// programs and the squash-and-replay program, in every memory mode, on a
// perfect machine and under lost and delayed messages and a PE death. The
// books must balance too, which is what harness.TestEngineDigestsPinned asks
// of all ten kernels on the benchmark's machine: every binding made is
// retired. And a finished run leaves nothing of a memory operation behind —
// no live cookie, no versioned-store-buffer entry or forwarding source, no
// binding.
func TestNoMemoryMessageAfterWaveRetires(t *testing.T) {
	type prog struct {
		name string
		wp   *isa.Program
	}
	progs := []prog{{"spec-conflict", compileSource(t, specConflictSrc)}}
	for _, spec := range testprogs.CorpusSpecs(40, 1) {
		src, err := testprogs.GenerateSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog{spec.Name(), compileSource(t, src)})
	}
	for _, name := range []string{"lu", "mcf", "fft"} {
		progs = append(progs, prog{name, compileSource(t, workloads.ByName(name).Src)})
	}
	faulty := fault.Config{Seed: 11, DropRate: 0.03, DelayRate: 0.02, MemLossRate: 0.02}
	kill := fault.Config{Seed: 11, DropRate: 0.01, MemLossRate: 0.01, KillPE: 1, KillCycle: 150}

	a := NewArena()
	a.s.retired = map[uint64]struct{}{}
	var bound, waves uint64
	for _, p := range progs {
		for _, fc := range []fault.Config{{}, faulty, kill} {
			for _, mode := range []MemoryMode{MemOrdered, MemSerial, MemIdeal, MemSpec} {
				cfg := DefaultConfig(2, 2)
				cfg.MemMode, cfg.Faults, cfg.MaxCycles = mode, fc, 50_000_000
				clear(a.s.retired)
				a.s.lateBinds = 0
				res, err := a.Run(p.wp, mustPol(placement.NewDynamicSnake(cfg.Machine)), cfg)
				if err != nil {
					t.Fatalf("%s %v %+v: %v", p.name, mode, fc, err)
				}
				w := a.Fence().Work
				if a.s.lateBinds != 0 {
					t.Errorf("%s %v %+v: %d memory messages arrived after their wave had retired", p.name, mode, fc, a.s.lateBinds)
				}
				if w.Bound != w.Retired || uint64(len(a.s.retired)) < res.Order.WavesDone {
					t.Errorf("%s %v %+v: %d bindings made, %d retired, %d waves seen retiring of %d completed",
						p.name, mode, fc, w.Bound, w.Retired, len(a.s.retired), res.Order.WavesDone)
				}
				if n, v, f, b := a.s.ckSlab.Len(), a.s.spec.vsb.Len(), a.s.spec.fwdTab.Len(), a.s.waveBuf.Len(); n+v+f+b != 0 {
					t.Errorf("%s %v %+v: the run left %d live cookies, %d vsb entries, %d forwarding sources, %d bindings",
						p.name, mode, fc, n, v, f, b)
				}
				bound += w.Bound
				waves += res.Order.WavesDone
			}
		}
	}
	if bound == 0 || waves == 0 {
		t.Fatalf("vacuous: %d bindings, %d waves", bound, waves)
	}
}
