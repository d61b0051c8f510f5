package wavecache

import (
	"testing"

	"wavescalar/internal/isa"
	"wavescalar/internal/placement"
	"wavescalar/internal/waveorder"
	"wavescalar/internal/workloads"
)

// timelineCheck wraps a run's memory mode and holds every commit to the
// request's timeline: fired ≤ arrived ≤ eligible ≤ granted ≤ done, where
// eligible is the cycle the engine released the request and granted its
// store-buffer slot. An ideal load is back-dated to its firing, so its last
// link is fired ≤ done instead.
type timelineCheck struct {
	memOrdering
	t       *testing.T
	ideal   bool
	commits uint64
}

func (c *timelineCheck) commit(s *sim, ck *memCookie, r *waveorder.Request, granted int64) int64 {
	fired, arrived, eligible := ck.fired, ck.arrived, s.now
	done := c.memOrdering.commit(s, ck, r, granted)
	c.commits++
	last := granted <= done
	if c.ideal && r.Kind == isa.MemLoad {
		last = fired <= done
	}
	if !(fired <= arrived && arrived <= eligible && eligible <= granted && last) {
		c.t.Fatalf("%v commit %d: fired %d, arrived %d, eligible %d, granted %d, done %d",
			r.Kind, c.commits, fired, arrived, eligible, granted, done)
	}
	return done
}

// TestMemTimelineMonotone runs memory-heavy kernels under every memory mode
// with the timeline check between reset and run: each load and store
// commits exactly once, in timeline order, and no cookie outlives the run.
// Every request returns to the pool exactly once: none is left buffered,
// none sits in the pool twice, and a second identical run on the same arena
// ends with the pool the size the first left it.
func TestMemTimelineMonotone(t *testing.T) {
	for _, name := range []string{"lu", "mcf", "art"} {
		wp := compileSource(t, workloads.ByName(name).Src)
		for _, mode := range []MemoryMode{MemOrdered, MemSerial, MemIdeal, MemSpec} {
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				cfg := DefaultConfig(2, 2)
				cfg.MemMode = mode
				a := NewArena()
				pool := 0
				for run := 0; run < 2; run++ {
					if err := a.s.reset(wp, mustPol(placement.NewDynamicSnake(cfg.Machine)), cfg); err != nil {
						t.Fatal(err)
					}
					chk := &timelineCheck{memOrdering: a.s.mode, t: t, ideal: mode == MemIdeal}
					a.s.mode = chk
					res, err := a.s.run()
					if err != nil {
						t.Fatal(err)
					}
					if want := res.Order.Loads + res.Order.Stores; chk.commits != want || want == 0 {
						t.Errorf("%d commits, want Order.Loads+Order.Stores = %d (> 0)", chk.commits, want)
					}
					if n := a.s.ckSlab.Len(); n != 0 {
						t.Errorf("%d cookies still live after the run", n)
					}
					if n := a.s.engine.Pending(); n != 0 {
						t.Errorf("%d requests still buffered after the run", n)
					}
					seen := make(map[*waveorder.Request]bool, len(a.s.reqFree))
					for _, r := range a.s.reqFree {
						if seen[r] {
							t.Fatalf("request %p is in the pool twice", r)
						}
						seen[r] = true
					}
					if run == 1 && len(a.s.reqFree) != pool {
						t.Errorf("second run left %d pooled requests, the first %d", len(a.s.reqFree), pool)
					}
					pool = len(a.s.reqFree)
				}
			})
		}
	}
}
