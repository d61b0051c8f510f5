// Package mem models the WaveScalar processor's memory hierarchy for timing
// purposes: per-cluster L1 data caches kept coherent by a directory-based
// MESI-like protocol, a shared L2, and main memory.
//
// The model is a timing and statistics model only. Functional memory
// correctness is owned by the execution engines (which operate on a single
// flat memory image in program order, as guaranteed by wave-ordered
// memory); this package answers "how long does this access take and what
// coherence traffic does it cause?". This mirrors how the paper's own
// simulator separates ordering (store buffers) from timing (caches).
package mem

import "fmt"

// CacheConfig describes one cache level. All sizes are in 64-bit words.
type CacheConfig struct {
	SizeWords int64
	LineWords int64
	Ways      int64
}

// Lines returns the number of lines the cache holds.
func (c CacheConfig) Lines() int64 { return c.SizeWords / c.LineWords }

// Sets returns the number of sets.
func (c CacheConfig) Sets() int64 { return c.Lines() / c.Ways }

// Validate checks the geometry.
func (c CacheConfig) Validate() error {
	if c.SizeWords <= 0 || c.LineWords <= 0 || c.Ways <= 0 {
		return fmt.Errorf("mem: non-positive cache geometry %+v", c)
	}
	if c.SizeWords%c.LineWords != 0 {
		return fmt.Errorf("mem: size %d not a multiple of line %d", c.SizeWords, c.LineWords)
	}
	if c.Lines()%c.Ways != 0 {
		return fmt.Errorf("mem: lines %d not a multiple of ways %d", c.Lines(), c.Ways)
	}
	return nil
}

// SystemConfig describes the whole hierarchy. Latencies are in cycles.
// Defaults mirror the published WaveScalar processor parameters: 32 KB
// 4-way L1s with 128-byte lines, a 16 MB 4-way L2 at 20 cycles, and
// 1000-cycle main memory.
type SystemConfig struct {
	NumL1s     int
	L1         CacheConfig
	L2         CacheConfig
	L1Latency  int64 // L1 hit
	L2Latency  int64 // additional cycles for an L2 hit
	MemLatency int64 // additional cycles for a DRAM access
}

// coherencePenalty is the added latency when the directory must invalidate
// or fetch a line from a peer L1.
const coherencePenalty = 8

// DefaultSystemConfig returns the paper-parameter hierarchy for n L1s.
func DefaultSystemConfig(n int) SystemConfig {
	return SystemConfig{
		NumL1s:     n,
		L1:         CacheConfig{SizeWords: 4096, LineWords: 16, Ways: 4},     // 32 KB, 128 B lines
		L2:         CacheConfig{SizeWords: 2097152, LineWords: 128, Ways: 4}, // 16 MB, 1 KB lines
		L1Latency:  1,
		L2Latency:  20,
		MemLatency: 1000,
	}
}

// cache is a tag-only set-associative array with LRU replacement, held as
// two flat set-major arrays: set s's ways are [s*ways, (s+1)*ways).
//
// tags hold line+1, so 0 is an invalid way (line numbers are never
// negative: the engines clamp addresses to the memory image). The zero
// value of both arrays is therefore an empty cache, and emptying one is two
// clears with no per-way sentinel to write back.
type cache struct {
	sets, ways int64
	tags       []int64 // line+1; 0 = invalid
	lru        []int64 // higher = more recent
	tick       int64
}

// reset empties the cache under cfg's geometry, keeping its arrays when
// they are large enough.
func (c *cache) reset(cfg CacheConfig) {
	c.sets, c.ways, c.tick = cfg.Sets(), cfg.Ways, 0
	n := int(cfg.Lines())
	if cap(c.tags) < n {
		c.tags, c.lru = make([]int64, n), make([]int64, n)
		return
	}
	c.tags, c.lru = c.tags[:n], c.lru[:n]
	clear(c.tags)
	clear(c.lru)
}

// lookup probes for a line, touching LRU on hit.
func (c *cache) lookup(line int64) bool {
	base := line % c.sets * c.ways
	for w, t := range c.tags[base : base+c.ways] {
		if t == line+1 {
			c.tick++
			c.lru[base+int64(w)] = c.tick
			return true
		}
	}
	return false
}

// insert fills a line, evicting LRU; returns the evicted line or -1.
func (c *cache) insert(line int64) int64 {
	base := line % c.sets * c.ways
	tags, lru := c.tags[base:base+c.ways], c.lru[base:base+c.ways]
	victim, oldest := 0, int64(1)<<62
	for w, t := range tags {
		if t == 0 {
			victim = w
			break
		}
		if lru[w] < oldest {
			victim, oldest = w, lru[w]
		}
	}
	evicted := tags[victim] - 1
	tags[victim] = line + 1
	c.tick++
	lru[victim] = c.tick
	return evicted
}

// invalidate removes a line if present.
func (c *cache) invalidate(line int64) {
	base := line % c.sets * c.ways
	for w, t := range c.tags[base : base+c.ways] {
		if t == line+1 {
			c.tags[base+int64(w)] = 0
		}
	}
}

// dirState is the directory's view of one line.
type dirState struct {
	sharers uint64 // bitmask of L1s holding the line
	owner   int    // exclusive/modified owner, or -1
}

// Stats counts hierarchy activity.
type Stats struct {
	Accesses  uint64
	L1Hits    uint64
	L1Misses  uint64
	L2Hits    uint64
	L2Misses  uint64
	Transfers uint64 // coherence ownership transfers / peer fetches
	Invals    uint64 // coherence invalidations
	Evictions uint64
}

// AccessResult reports one access's timing.
type AccessResult struct {
	Latency   int64
	L1Hit     bool
	L2Hit     bool
	Coherence bool // the directory had to act
}

// System is the coherent hierarchy. The zero value is empty; Reset (or
// NewSystem) gives it a shape.
type System struct {
	cfg SystemConfig
	// l1s keeps whatever an earlier, larger shape allocated in its
	// capacity, so shrinking and regrowing NumL1s reuses the arrays.
	l1s []cache
	l2  cache

	// dir is the coherence directory, indexed densely by L1 line number;
	// an entry with sharers == 0 is absent. The execution engines clamp
	// every address to the program's memory image, so the line space is
	// small and bounded and a flat slice beats a map on the access path.
	// Grown lazily by dirEnsure.
	dir []dirState

	stats  Stats
	lineSz int64
}

// MaxL1s is the largest L1 count a System supports: the directory tracks a
// line's sharers in one 64-bit mask.
const MaxL1s = 64

// NewSystem builds a hierarchy.
func NewSystem(cfg SystemConfig) (*System, error) {
	s := &System{}
	if err := s.Reset(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset puts the hierarchy into the state NewSystem(cfg) returns, whatever
// shapes it had before, allocating only what it does not already hold: a
// cache array is reused whenever its capacity covers the new geometry (so
// the L2, which no grid change touches, is kept), L1s beyond a smaller
// NumL1s wait in the slice's capacity, and the directory slice stays. A
// rejected cfg leaves the System as it was.
func (s *System) Reset(cfg SystemConfig) error {
	if cfg.NumL1s < 1 || cfg.NumL1s > MaxL1s {
		return fmt.Errorf("mem: NumL1s %d out of range [1,%d]", cfg.NumL1s, MaxL1s)
	}
	if err := cfg.L1.Validate(); err != nil {
		return err
	}
	if err := cfg.L2.Validate(); err != nil {
		return err
	}
	s.cfg = cfg
	s.lineSz = cfg.L1.LineWords
	s.stats = Stats{}
	s.l2.reset(cfg.L2)
	if cap(s.l1s) < cfg.NumL1s {
		// Copy the whole capacity region, not just the live prefix: the
		// parked caches past len still own arrays worth keeping.
		s.l1s = append(make([]cache, 0, cfg.NumL1s), s.l1s[:cap(s.l1s)]...)
	}
	s.l1s = s.l1s[:cfg.NumL1s]
	for i := range s.l1s {
		s.l1s[i].reset(cfg.L1)
	}
	clear(s.dir)
	return nil
}

// dirAt returns the directory entry for a line, or nil if the line is
// untracked (no L1 holds it).
func (s *System) dirAt(line int64) *dirState {
	if line < int64(len(s.dir)) {
		if d := &s.dir[line]; d.sharers != 0 {
			return d
		}
	}
	return nil
}

// dirEnsure grows the directory to cover a line and returns its entry,
// initialized to the unowned state.
func (s *System) dirEnsure(line int64) *dirState {
	if line >= int64(len(s.dir)) {
		grown := make([]dirState, max(line+1, int64(2*len(s.dir))))
		copy(grown, s.dir)
		s.dir = grown
	}
	d := &s.dir[line]
	*d = dirState{owner: -1}
	return d
}

// Stats returns aggregate counters.
func (s *System) Stats() Stats { return s.stats }

// LineOf maps a word address to its L1 line number.
func (s *System) LineOf(addr int64) int64 { return addr / s.lineSz }

// Access performs one timed access from L1 number l1 and returns its
// latency and classification.
func (s *System) Access(l1 int, addr int64, write bool) AccessResult {
	line := s.LineOf(addr)
	s.stats.Accesses++

	res := AccessResult{Latency: s.cfg.L1Latency}
	d := s.dirAt(line)

	if s.l1s[l1].lookup(line) {
		// L1 hit; a write to a shared line still needs the directory to
		// invalidate the other sharers (upgrade miss).
		s.stats.L1Hits++
		if write && d != nil && (d.sharers&^(1<<uint(l1)) != 0) {
			s.invalidatePeers(d, l1, line)
			d.owner = l1
			d.sharers = 1 << uint(l1)
			res.Coherence = true
			res.Latency += coherencePenalty
		}
		if write && d != nil {
			d.owner = l1
		}
		res.L1Hit = true
		return res
	}

	// L1 miss.
	s.stats.L1Misses++

	if d != nil && d.sharers != 0 && d.sharers != 1<<uint(l1) {
		// Some peer holds the line: fetch it from there (dirty transfer if
		// exclusively owned) instead of going to L2/DRAM.
		res.Coherence = true
		res.Latency += coherencePenalty
		s.stats.Transfers++
		if write {
			s.invalidatePeers(d, l1, line)
			d.sharers = 0
		}
	} else if s.l2.lookup(line / (s.cfg.L2.LineWords / s.cfg.L1.LineWords)) {
		res.L2Hit = true
		res.Latency += s.cfg.L2Latency
		s.stats.L2Hits++
	} else {
		res.Latency += s.cfg.L2Latency + s.cfg.MemLatency
		s.stats.L2Misses++
		if ev := s.l2.insert(line / (s.cfg.L2.LineWords / s.cfg.L1.LineWords)); ev != -1 {
			s.stats.Evictions++
		}
	}

	// Fill into the requesting L1.
	if ev := s.l1s[l1].insert(line); ev != -1 {
		s.stats.Evictions++
		if de := s.dirAt(ev); de != nil {
			de.sharers &^= 1 << uint(l1)
			if de.owner == l1 {
				de.owner = -1
			}
		}
	}
	if d == nil {
		d = s.dirEnsure(line)
	}
	d.sharers |= 1 << uint(l1)
	if write {
		d.owner = l1
	} else if d.owner != l1 {
		d.owner = -1 // demoted to shared
	}
	return res
}

func (s *System) invalidatePeers(d *dirState, except int, line int64) {
	for i := 0; i < s.cfg.NumL1s; i++ {
		if i == except {
			continue
		}
		if d.sharers&(1<<uint(i)) != 0 {
			s.l1s[i].invalidate(line)
			s.stats.Invals++
		}
	}
}
