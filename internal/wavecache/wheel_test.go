package wavecache

import (
	"container/heap"
	"math/rand"
	"testing"
	"unsafe"

	"wavescalar/internal/placement"
	"wavescalar/internal/workloads"
)

// refQueue is the reference the wheel is checked against: container/heap
// over (time, seq), the order the engine defines.
type refQueue []refEnt

type refEnt struct {
	time int64
	seq  uint64
}

func (h refQueue) Len() int      { return len(h) }
func (h refQueue) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h refQueue) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h *refQueue) Push(x any) { *h = append(*h, x.(refEnt)) }
func (h *refQueue) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// queuePair drives an eventQueue and the reference with one schedule. Each
// event's seq rides in vals[0] so a pop can be checked against the
// reference's. now is the clock, the running maximum of popped times,
// exactly sim.now.
type queuePair struct {
	t   *testing.T
	q   eventQueue
	ref refQueue
	seq uint64
	now int64
}

func newQueuePair(t *testing.T) *queuePair {
	p := &queuePair{t: t}
	p.q.reset()
	return p
}

func (p *queuePair) push(tm int64) {
	i := p.q.alloc()
	p.q.slab[i] = event{time: tm, vals: [3]int64{int64(p.seq)}}
	p.q.push(i, tm, p.seq)
	heap.Push(&p.ref, refEnt{tm, p.seq})
	p.seq++
}

// pop pops both queues, requires the same event, and returns it.
func (p *queuePair) pop() refEnt {
	p.t.Helper()
	if p.q.len() != p.ref.Len() {
		p.t.Fatalf("len mismatch: wheel=%d reference=%d", p.q.len(), p.ref.Len())
	}
	i := p.q.pop()
	got := refEnt{p.q.slab[i].time, uint64(p.q.slab[i].vals[0])}
	p.q.release(i)
	if want := heap.Pop(&p.ref).(refEnt); got != want {
		p.t.Fatalf("wheel popped (t=%d seq=%d), reference popped (t=%d seq=%d)",
			got.time, got.seq, want.time, want.seq)
	}
	p.now = max(p.now, got.time)
	if p.q.cur > p.now {
		p.t.Fatalf("cursor %d ran ahead of the clock %d", p.q.cur, p.now)
	}
	return got
}

// drive runs ops steps of a randomized push/pop schedule on p, leaving
// whatever is still queued. Pushes follow the engine's real contract — seq
// stamps monotone, times anywhere relative to the clock — and are
// adversarial on both sides of it: bursts at the current cycle, deltas
// straddling the ring window (forcing heap overflow), long dead stretches
// that make the cursor jump, duplicate times, and the back-dated pushes
// MemIdeal's oracle replies make: single ones a few cycles behind the
// cursor, bursts of them, one landing exactly on the cursor, and one more
// than a whole ring behind it.
func (p *queuePair) drive(rng *rand.Rand, ops int) {
	p.t.Helper()
	back := func(d int64) {
		if tm := p.now - d; tm >= 0 {
			p.push(tm)
		}
	}
	for op := 0; op < ops; op++ {
		if p.q.len() == 0 || (rng.Intn(3) > 0 && p.q.len() < 400) {
			switch rng.Intn(14) {
			case 0: // far future: overflows the ring window
				p.push(p.now + int64(wheelSize+rng.Intn(3*wheelSize)))
			case 1: // straddle the window edge
				p.push(p.now + int64(wheelSize-2+rng.Intn(5)))
			case 2: // long dead stretch: cursor must jump
				p.push(p.now + int64(500+rng.Intn(2000)))
			case 3: // back-dated behind the cursor
				back(int64(rng.Intn(64)))
			case 4: // a burst of back-dated pushes, with same-cycle company
				for n := 2 + rng.Intn(6); n > 0; n-- {
					back(int64(rng.Intn(64)))
					p.push(p.now)
				}
			case 5: // exactly on the cursor: not back-dated, joins its bucket
				p.push(p.q.cur)
			case 6: // more than a whole ring behind: must not alias a live bucket
				back(int64(wheelSize + 1 + rng.Intn(wheelSize)))
			default: // near future, heavy same-cycle traffic
				p.push(p.now + int64(rng.Intn(4)))
			}
		} else {
			p.pop()
		}
	}
}

// drain pops both queues dry.
func (p *queuePair) drain() {
	p.t.Helper()
	for p.q.len() > 0 {
		p.pop()
	}
	if p.ref.Len() != 0 {
		p.t.Fatalf("reference retains %d events after wheel drained", p.ref.Len())
	}
}

// TestEventRecordIs64Bytes: the home a token or firing carries sits in what
// was the record's padding, so a slab record is still one cache line.
func TestEventRecordIs64Bytes(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 64 {
		t.Errorf("event is %d bytes, want 64", n)
	}
}

// TestWheelQueueDifferential drives the calendar-wheel queue and the
// reference heap with the identical randomized push/pop schedule (drive)
// and requires the identical pop sequence. Two cases ride along for the
// buckets threaded through the slab: a bucket popped empty and refilled at
// the cursor's cycle, whose bit the last pop cleared, and a queue reset with
// events still linked in its buckets and heap — what an Arena's queue holds
// when a cancelled or faulted run is followed by the next Run
// (TestCancelAtEventNThenReuse checks whole runs of that).
func TestWheelQueueDifferential(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		p := newQueuePair(t)
		p.push(0)
		p.drive(rand.New(rand.NewSource(int64(900+trial))), 8000)
		if p.q.backdated == 0 {
			t.Fatalf("trial %d: schedule never pushed behind the cursor", trial)
		}
		p.drain()
	}

	t.Run("bucket refilled after draining at the cursor", func(t *testing.T) {
		p := newQueuePair(t)
		p.push(700) // a later bucket and a heap entry stay queued throughout
		p.push(5000)
		for tm := int64(1); tm <= 300; tm++ {
			for n := 1 + tm%3; n > 0; n-- {
				p.push(tm)
			}
			for p.ref[0].time <= tm {
				p.pop()
			}
			s := int(tm) & wheelMask
			if p.q.cur != tm || p.q.bmap[s>>6]&(1<<(uint(s)&63)) != 0 {
				t.Fatalf("t=%d: cursor %d, bucket still marked after its last pop", tm, p.q.cur)
			}
			for n := 1 + tm%2; n > 0; n-- { // pop before everything at tm+1
				p.push(tm)
			}
		}
		p.drain()
	})

	t.Run("reset with events linked in the buckets", func(t *testing.T) {
		p := newQueuePair(t)
		for trial := 0; trial < 20; trial++ {
			rng := rand.New(rand.NewSource(int64(1900 + trial)))
			p.drive(rng, 2000) // the run a cancel abandons
			for p.q.n < 50 {
				p.push(p.now + int64(rng.Intn(2*wheelSize)))
			}
			p.q.reset()
			p.ref, p.seq, p.now = p.ref[:0], 0, 0
			if p.q.len() != 0 {
				t.Fatalf("trial %d: %d events survive reset", trial, p.q.len())
			}
			p.push(0)
			p.drive(rng, 2000) // the next run on the same queue
			p.drain()
		}
	})
}

// TestWheelQueuePastPush pins the back-dated path on a schedule small
// enough to read: pushes behind the drain cursor (MemIdeal's oracle
// replies) board the overflow heap and pop in global (time, seq) order,
// before anything at the cursor.
func TestWheelQueuePastPush(t *testing.T) {
	p := newQueuePair(t)
	p.push(10)
	p.push(10)
	if e := p.pop(); e.time != 10 {
		t.Fatalf("expected t=10 first, got %d", e.time)
	}
	// Cursor now at 10; back-date below it, plus same-cycle and future
	// company, and verify the back-dated pair drains first in seq order.
	p.push(3)
	p.push(10)
	p.push(3)
	p.push(12)
	if p.q.backdated != 2 {
		t.Fatalf("backdated = %d, want 2", p.q.backdated)
	}
	for _, want := range []refEnt{{3, 2}, {3, 4}, {10, 1}, {10, 3}, {12, 5}} {
		if got := p.pop(); got != want {
			t.Fatalf("got (t=%d seq=%d), want (t=%d seq=%d)", got.time, got.seq, want.time, want.seq)
		}
	}
	if p.q.len() != 0 {
		t.Fatalf("queue not drained: %d left", p.q.len())
	}
}

// TestMemIdealBackdatesBehindCursor keeps the fence above from going
// vacuous: MemIdeal is the reason the queue must take pushes behind its
// cursor, so a MemIdeal run of a memory-bound kernel must actually make
// some — and the other modes, which never back-date, must make none.
func TestMemIdealBackdatesBehindCursor(t *testing.T) {
	wp := compileSource(t, workloads.ByName("mcf").Src)
	for _, mode := range []MemoryMode{MemOrdered, MemSerial, MemIdeal, MemSpec} {
		cfg := DefaultConfig(2, 2)
		cfg.MemMode = mode
		a := NewArena()
		if _, err := a.Run(wp, mustPol(placement.NewDynamicSnake(cfg.Machine)), cfg); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		n := a.s.q.backdated
		t.Logf("%v: %d pushes behind the cursor", mode, n)
		if (mode == MemIdeal) != (n > 0) {
			t.Errorf("%v: %d pushes landed behind the cursor", mode, n)
		}
	}
}

// BenchmarkEventQueue is the event-queue layer on its own: a steady state
// of 256 queued events, each pop followed by one push drawn from the mix
// the engine produces — mostly a few cycles ahead, now and then beyond the
// ring window, now and then (MemIdeal) behind the cursor.
func BenchmarkEventQueue(b *testing.B) {
	for _, mix := range []struct {
		name      string
		far, back int // per 64 pushes
	}{
		{"near", 0, 0},
		{"near+far", 2, 0},
		{"near+far+backdated", 2, 4},
	} {
		b.Run(mix.name, func(b *testing.B) {
			var q eventQueue
			q.reset()
			var seq uint64
			now := int64(0)
			push := func(tm int64) {
				i := q.alloc()
				q.slab[i].time = tm
				q.push(i, tm, seq)
				seq++
			}
			for i := 0; i < 256; i++ {
				push(int64(i % 16))
			}
			rng := rand.New(rand.NewSource(1))
			var deltas [1024]int64
			for i := range deltas {
				switch r := rng.Intn(64); {
				case r < mix.far:
					deltas[i] = int64(wheelSize + rng.Intn(wheelSize))
				case r < mix.far+mix.back:
					deltas[i] = -int64(1 + rng.Intn(32))
				default:
					deltas[i] = int64(1 + rng.Intn(8))
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx := q.pop()
				if tm := q.slab[idx].time; tm > now {
					now = tm
				}
				q.release(idx)
				push(max(now+deltas[i&1023], 0))
			}
		})
	}
}
