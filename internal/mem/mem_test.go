package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func smallConfig(n int) SystemConfig {
	return SystemConfig{
		NumL1s:     n,
		L1:         CacheConfig{SizeWords: 64, LineWords: 4, Ways: 2},
		L2:         CacheConfig{SizeWords: 1024, LineWords: 16, Ways: 4},
		L1Latency:  1,
		L2Latency:  20,
		MemLatency: 1000,
	}
}

func TestCacheConfigValidate(t *testing.T) {
	good := CacheConfig{SizeWords: 64, LineWords: 4, Ways: 2}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.Lines() != 16 || good.Sets() != 8 {
		t.Errorf("lines=%d sets=%d", good.Lines(), good.Sets())
	}
	bad := []CacheConfig{
		{SizeWords: 0, LineWords: 4, Ways: 1},
		{SizeWords: 63, LineWords: 4, Ways: 1},
		{SizeWords: 64, LineWords: 4, Ways: 3},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	s, err := NewSystem(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	r1 := s.Access(0, 100, false)
	if r1.L1Hit {
		t.Error("cold access hit")
	}
	if r1.Latency <= 20 {
		t.Errorf("cold miss latency %d should include DRAM", r1.Latency)
	}
	r2 := s.Access(0, 101, false) // same line
	if !r2.L1Hit || r2.Latency != 1 {
		t.Errorf("same-line access: hit=%v latency=%d", r2.L1Hit, r2.Latency)
	}
	st := s.Stats()
	if st.L1Hits != 1 || st.L1Misses != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestL2CatchesL1Evictions(t *testing.T) {
	s, _ := NewSystem(smallConfig(1))
	// Touch enough distinct lines to overflow L1 (16 lines) but not L2.
	for a := int64(0); a < 64*4; a += 4 {
		s.Access(0, a, false)
	}
	// Re-touch the first line: should be an L1 miss but L2 hit.
	r := s.Access(0, 0, false)
	if r.L1Hit {
		t.Error("line survived certain eviction")
	}
	if !r.L2Hit {
		t.Error("L2 did not retain evicted line")
	}
	if r.Latency != 1+20 {
		t.Errorf("L2 hit latency = %d, want 21", r.Latency)
	}
}

func TestLRUWithinSet(t *testing.T) {
	s, _ := NewSystem(smallConfig(1))
	// The L1 has 8 sets, 2 ways, lines of 4 words: lines mapping to set 0
	// are line numbers 0, 8, 16, ... i.e. addresses 0, 32, 64.
	s.Access(0, 0, false)  // line 0 -> set 0
	s.Access(0, 32, false) // line 8 -> set 0
	s.Access(0, 0, false)  // touch line 0 (now MRU)
	s.Access(0, 64, false) // line 16 -> evicts line 8 (LRU)
	if r := s.Access(0, 0, false); !r.L1Hit {
		t.Error("MRU line was evicted")
	}
	if r := s.Access(0, 32, false); r.L1Hit {
		t.Error("LRU line was not evicted")
	}
}

func TestCoherenceInvalidation(t *testing.T) {
	s, _ := NewSystem(smallConfig(4))
	// Both L1s read the same line.
	s.Access(0, 10, false)
	r := s.Access(1, 10, false)
	if !r.Coherence {
		t.Error("peer fetch not flagged as coherence traffic")
	}
	// L1 0 writes: L1 1's copy must be invalidated.
	w := s.Access(0, 10, true)
	if !w.Coherence {
		t.Error("upgrade write not flagged")
	}
	// L1 1 reads again: must be a miss serviced by a transfer.
	r2 := s.Access(1, 10, false)
	if r2.L1Hit {
		t.Error("stale copy read after invalidation")
	}
	st := s.Stats()
	if st.Invals == 0 || st.Transfers == 0 {
		t.Errorf("stats %+v: expected invalidations and transfers", st)
	}
}

func TestMigratorySharing(t *testing.T) {
	// The SPAA'06 model assumes migratory sharing: a line written by
	// cluster after cluster transfers ownership once per cluster. Verify
	// each handoff costs exactly one transfer + invalidation.
	s, _ := NewSystem(smallConfig(4))
	s.Access(0, 20, true)
	before := s.Stats()
	s.Access(1, 20, true)
	after := s.Stats()
	if after.Transfers != before.Transfers+1 {
		t.Errorf("transfers %d -> %d, want +1", before.Transfers, after.Transfers)
	}
	if after.Invals != before.Invals+1 {
		t.Errorf("invals %d -> %d, want +1", before.Invals, after.Invals)
	}
}

func TestStatsConservation(t *testing.T) {
	// Property: hits + misses == accesses, regardless of access pattern.
	prop := func(seed int64) bool {
		s, _ := NewSystem(smallConfig(4))
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			s.Access(rng.Intn(4), int64(rng.Intn(2000)), rng.Intn(2) == 0)
		}
		st := s.Stats()
		return st.L1Hits+st.L1Misses == st.Accesses &&
			st.L2Hits+st.L2Misses+st.Transfers >= st.L1Misses-st.Transfers
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleL1NeverCoheres(t *testing.T) {
	prop := func(seed int64) bool {
		s, _ := NewSystem(smallConfig(1))
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 300; i++ {
			r := s.Access(0, int64(rng.Intn(500)), rng.Intn(2) == 0)
			if r.Coherence {
				return false
			}
		}
		return s.Stats().Invals == 0 && s.Stats().Transfers == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNewSystemRejectsBadConfig(t *testing.T) {
	badL1, badL2 := smallConfig(1), smallConfig(1)
	badL1.L1.Ways = 3
	badL2.L2.SizeWords = 1000
	bad := map[string]SystemConfig{
		"0 L1s":            smallConfig(0),
		"more than MaxL1s": smallConfig(MaxL1s + 1),
		"bad L1 geometry":  badL1,
		"bad L2 geometry":  badL2,
	}
	for name, cfg := range bad {
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("NewSystem accepted %s", name)
		}
	}

	// Reset rejects the same configurations and leaves the System as it
	// was: it goes on behaving like an undisturbed twin.
	s, _ := NewSystem(smallConfig(2))
	twin, _ := NewSystem(smallConfig(2))
	rng := rand.New(rand.NewSource(3))
	step := func() {
		l1, addr, write := rng.Intn(2), int64(rng.Intn(600)), rng.Intn(3) == 0
		if got, want := s.Access(l1, addr, write), twin.Access(l1, addr, write); got != want {
			t.Fatalf("after a rejected Reset: access(%d, %d, %v) = %+v, twin %+v", l1, addr, write, got, want)
		}
	}
	for i := 0; i < 200; i++ {
		step()
	}
	for name, cfg := range bad {
		if err := s.Reset(cfg); err == nil {
			t.Errorf("Reset accepted %s", name)
		}
		for i := 0; i < 200; i++ {
			step()
		}
	}
	if s.Stats() != twin.Stats() {
		t.Errorf("stats after rejected Resets %+v, twin %+v", s.Stats(), twin.Stats())
	}
}

// TestResetIndistinguishableFromNew is the reuse contract: whatever shapes
// a System went through before — more or fewer L1s, other L1 or L2
// geometries, and back again — Reset(cfg) leaves it behaving exactly like
// NewSystem(cfg): the same AccessResult for every access of a random
// stream, the same Stats at the end. The streams between Resets dirty every
// array the next shape inherits.
func TestResetIndistinguishableFromNew(t *testing.T) {
	shape := func(rng *rand.Rand) SystemConfig {
		cfg := smallConfig(1 + rng.Intn(9))
		switch rng.Intn(4) {
		case 1: // larger, more associative L1s
			cfg.L1 = CacheConfig{SizeWords: 256, LineWords: 8, Ways: 4}
		case 2: // direct-mapped L1s with the L2's line size
			cfg.L1 = CacheConfig{SizeWords: 128, LineWords: 16, Ways: 1}
		}
		switch rng.Intn(3) {
		case 1: // smaller L2
			cfg.L2 = CacheConfig{SizeWords: 512, LineWords: 16, Ways: 2}
		case 2: // larger L2, longer lines
			cfg.L2 = CacheConfig{SizeWords: 4096, LineWords: 32, Ways: 8}
		}
		return cfg
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		reused := &System{}
		for round := 0; round < 8; round++ {
			cfg := shape(rng)
			if round%3 == 2 {
				cfg = reused.cfg // the same shape again
			}
			if err := reused.Reset(cfg); err != nil {
				t.Fatal(err)
			}
			fresh, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 600; i++ {
				l1, addr, write := rng.Intn(cfg.NumL1s), int64(rng.Intn(3000)), rng.Intn(3) == 0
				if got, want := reused.Access(l1, addr, write), fresh.Access(l1, addr, write); got != want {
					t.Errorf("seed %d round %d (%+v) access %d: reused %+v, fresh %+v", seed, round, cfg, i, got, want)
					return false
				}
			}
			if reused.Stats() != fresh.Stats() {
				t.Errorf("seed %d round %d: stats reused %+v, fresh %+v", seed, round, reused.Stats(), fresh.Stats())
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultSystemConfig(t *testing.T) {
	cfg := DefaultSystemConfig(4)
	if err := cfg.L1.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := cfg.L2.Validate(); err != nil {
		t.Fatal(err)
	}
	// 32 KB of 8-byte words = 4096 words; 128 B lines = 16 words.
	if cfg.L1.SizeWords != 4096 || cfg.L1.LineWords != 16 {
		t.Errorf("L1 geometry %+v", cfg.L1)
	}
	if _, err := NewSystem(cfg); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAccess is the cache hierarchy on its own, 16 L1s of the default
// configuration: strided walks (three accesses in ten are writes) through a
// working set that fits one L1 (hits, plus the coherence traffic of 16 L1s
// sharing it) and one four times an L1 (capacity misses into the L2).
func BenchmarkAccess(b *testing.B) {
	cfg := DefaultSystemConfig(16)
	for _, ws := range []struct {
		name string
		span int64
	}{{"fits-l1", cfg.L1.SizeWords / 2}, {"4x-l1", 4 * cfg.L1.SizeWords}} {
		b.Run(ws.name, func(b *testing.B) {
			s, err := NewSystem(cfg)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			type acc struct {
				l1    int
				addr  int64
				write bool
			}
			var ring [1 << 12]acc
			addr := int64(0)
			for i := range ring {
				if rng.Intn(8) == 0 {
					addr = rng.Int63n(ws.span)
				} else {
					addr = (addr + 1 + rng.Int63n(4)) % ws.span
				}
				ring[i] = acc{l1: rng.Intn(16), addr: addr, write: rng.Intn(10) < 3}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var sink int64
			for i := 0; i < b.N; i++ {
				a := &ring[i&(len(ring)-1)]
				sink += s.Access(a.l1, a.addr, a.write).Latency
			}
			if sink == 0 {
				b.Fatal("every latency was 0")
			}
		})
	}
}

// BenchmarkSystemReset is what a pooled simulator arena pays per run to
// rewind the default hierarchy: with the shape unchanged, and cycling
// through the cluster counts of the 2x2, 4x2, 3x3 and 4x4 grids (the L1
// count follows the grid; the L2 does not change). Both are 0 allocs/op
// once the largest shape has been seen.
func BenchmarkSystemReset(b *testing.B) {
	for _, bc := range []struct {
		name string
		l1s  []int
	}{{"same-shape", []int{16}}, {"grid-change", []int{4, 8, 9, 16}}} {
		b.Run(bc.name, func(b *testing.B) {
			s := &System{}
			for _, n := range bc.l1s {
				if err := s.Reset(DefaultSystemConfig(n)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Reset(DefaultSystemConfig(bc.l1s[i%len(bc.l1s)])); err != nil {
					b.Fatal(err)
				}
				s.Access(0, int64(i%4096), true) // leave something to clear
			}
		})
	}
}
