package main

import (
	"sort"
	"time"
)

// Why timings are normalised. This sandbox shares its cores with other
// machines, and its speed moves between two states: measured over fifteen
// minutes, one kernel simulation took either ~93 ms or ~160 ms, the state
// lasting from a quarter of a second to minutes, and for long stretches
// fewer than one sample in twenty was within 10% of the fastest. An ALU
// dependency chain does not feel it and a pointer chase barely does; code
// that keeps several loads and multiplies in flight slows by the same
// 1.6-1.9x as the simulator, which is what a busy sibling hyperthread does;
// code that allocates, as the compiler does, slows at other moments and by
// other amounts. Medians, means and even the fastest of ten repetitions of
// an operation follow the neighbours (quartile distance 40-58% of the
// median), so none of them can carry a regression bound.
//
// The host probe is ~1 ms of such code, owned by the benchmark and never
// changed with the program. It runs at the boundaries between operations,
// and each operation's time is divided by the slowdown of the probes around
// it. The raw slowdown is reported as proc.host_slowdown.

// probeSample is one probe on a worker's timeline.
type probeSample struct {
	at   time.Time // when it ended
	slow float64   // its slowdown
}

// probeLine is one worker goroutine's probes, in time order, and the 64 KB
// table (resident in the first two cache levels) its probes work on.
type probeLine struct {
	alloc   bool // probes run their allocating half too
	samples []probeSample
	table   [1 << 13]uint64
}

// An allocating workload spends its time in code that allocates; its probes
// run their allocating half too.
type allocating interface {
	allocating()
}

// What the probe's halves take on this class of host at its quietest. A
// probe's slowdown is its time over these (the mean of the two, when both
// halves run), so every timing is reported for a host on which the probe
// takes exactly this long. Constants, because the fastest probe of a single
// run moves by several percent from run to run and would move every timing
// of the run with it.
const (
	arithNominal = 810 * time.Microsecond
	allocNominal = 345 * time.Microsecond
)

// hostProbe runs the probe and returns its slowdown.
//
// The first half is two independent multiply chains with two loads and a
// store per step: what the simulator's event loop does. It does not run the
// program or touch its heap, so a change to the program moves normalised
// and raw time alike.
//
// The second half, for allocating workloads, allocates 2500 nodes into a
// binary search tree, a map and a slice and walks them: what the compiler
// does. Normalised by the first half alone, compile-corpus spread two to
// three times as far from run to run while the neighbours were busy (15%
// against 6-9%); the same tree built in memory allocated once did not help,
// so it is the allocation that counts. The price: this half shares the
// program's heap and is slower while a collection runs, so it hides part of
// a change in how much the program collects. Collecting a quarter as often
// (GOGC=400) makes compile-corpus 5% faster by the first half alone and 2%
// faster by both; proc.alloc_mb and proc.gc_cpu_fraction show such a change
// in full. The other workloads do not tell the halves apart, and the
// garbage of the second widens the spread of their peak_rss_mb, so their
// probes leave it out.
func (p *probeLine) hostProbe() float64 {
	t0 := time.Now()
	x, y := uint64(12345), uint64(67890)
	var s uint64
	for i := 0; i < 500_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		y = y*2862933555777941757 + 3037000493
		s += p.table[x>>51] ^ p.table[y>>51]
		p.table[(x>>40)&(1<<13-1)] = s
	}

	t1 := time.Now()
	arith := float64(t1.Sub(t0)) / float64(arithNominal)
	if !p.alloc {
		return arith
	}
	var root *probeNode
	byKey := make(map[uint64]*probeNode)
	var nodes []*probeNode
	for i := 0; i < 2500; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		n := &probeNode{key: x >> 20}
		at := &root
		for *at != nil {
			if n.key < (*at).key {
				at = &(*at).left
			} else {
				at = &(*at).right
			}
		}
		*at = n
		byKey[x>>54] = n
		nodes = append(nodes, n)
	}
	for _, n := range nodes {
		if n.left != nil {
			s += n.left.key
		}
		s += byKey[n.key>>34].key
	}
	p.table[0] = s // keeps the walk alive
	return (arith + float64(time.Since(t1))/float64(allocNominal)) / 2
}

// probeNode is 40 bytes, about an IR instruction or an AST node.
type probeNode struct {
	key         uint64
	left, right *probeNode
	pad         [2]uint64
}

// probeStale is how old the latest probe may be before an operation
// boundary takes new ones; probeWindow is how far from an operation a probe
// may lie and still count towards it. States last 250 ms or more.
const (
	probeStale  = 2 * time.Millisecond
	probeWindow = 50 * time.Millisecond
)

// refresh takes two probes unless the latest one is recent enough.
func (p *probeLine) refresh() {
	if n := len(p.samples); n > 0 && time.Since(p.samples[n-1].at) < probeStale {
		return
	}
	for range 2 {
		slow := p.hostProbe()
		p.samples = append(p.samples, probeSample{time.Now(), slow})
	}
}

// around is the mean slowdown of the probes near [start, end]: within
// probeWindow, or within the interval's own length when that is longer (an
// operation of seconds averages over many states, and so must its probes),
// or of the nearest probe on each side when none is that close.
func (p *probeLine) around(start, end time.Time) float64 {
	window := max(probeWindow, end.Sub(start))
	lo := sort.Search(len(p.samples), func(i int) bool { return !p.samples[i].at.Before(start.Add(-window)) })
	hi := sort.Search(len(p.samples), func(i int) bool { return p.samples[i].at.After(end.Add(window)) })
	if lo == hi { // nothing in the window: the neighbours on both sides
		lo, hi = max(lo-1, 0), min(hi+1, len(p.samples))
	}
	var sum float64
	for _, s := range p.samples[lo:hi] {
		sum += s.slow
	}
	return sum / float64(hi-lo)
}
