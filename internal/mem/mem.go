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
	// CoherencePenalty is the added latency when the directory must
	// invalidate or fetch a line from a peer L1.
	CoherencePenalty int64
}

// DefaultSystemConfig returns the paper-parameter hierarchy for n L1s.
func DefaultSystemConfig(n int) SystemConfig {
	return SystemConfig{
		NumL1s:           n,
		L1:               CacheConfig{SizeWords: 4096, LineWords: 16, Ways: 4},     // 32 KB, 128 B lines
		L2:               CacheConfig{SizeWords: 2097152, LineWords: 128, Ways: 4}, // 16 MB, 1 KB lines
		L1Latency:        1,
		L2Latency:        20,
		MemLatency:       1000,
		CoherencePenalty: 8,
	}
}

// cache is a tag-only set-associative array with LRU replacement.
type cache struct {
	cfg  CacheConfig
	tags [][]int64 // per set, per way; -1 = invalid
	lru  [][]int64 // per set, per way; higher = more recent
	tick int64
}

func newCache(cfg CacheConfig) *cache {
	sets := cfg.Sets()
	c := &cache{cfg: cfg}
	c.tags = make([][]int64, sets)
	c.lru = make([][]int64, sets)
	for i := range c.tags {
		c.tags[i] = make([]int64, cfg.Ways)
		c.lru[i] = make([]int64, cfg.Ways)
		for w := range c.tags[i] {
			c.tags[i][w] = -1
		}
	}
	return c
}

// reset empties the cache, keeping its arrays.
func (c *cache) reset() {
	c.tick = 0
	for i := range c.tags {
		for w := range c.tags[i] {
			c.tags[i][w] = -1
			c.lru[i][w] = 0
		}
	}
}

// lookup probes for a line, touching LRU on hit.
func (c *cache) lookup(line int64) bool {
	set := line % c.cfg.Sets()
	for w, t := range c.tags[set] {
		if t == line {
			c.tick++
			c.lru[set][w] = c.tick
			return true
		}
	}
	return false
}

// insert fills a line, evicting LRU; returns the evicted line or -1.
func (c *cache) insert(line int64) int64 {
	set := line % c.cfg.Sets()
	victim, oldest := 0, int64(1)<<62
	for w, t := range c.tags[set] {
		if t == -1 {
			victim = w
			oldest = -1
			break
		}
		if c.lru[set][w] < oldest {
			victim, oldest = w, c.lru[set][w]
		}
	}
	evicted := c.tags[set][victim]
	c.tags[set][victim] = line
	c.tick++
	c.lru[set][victim] = c.tick
	return evicted
}

// invalidate removes a line if present.
func (c *cache) invalidate(line int64) {
	set := line % c.cfg.Sets()
	for w, t := range c.tags[set] {
		if t == line {
			c.tags[set][w] = -1
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
	// Speculative counts the subset of Accesses issued ahead of the
	// wave-order commit point (MemSpec mode). A replayed access after a
	// squash is a plain Access, so Accesses - Speculative is the
	// committed-path traffic.
	Speculative uint64
}

// AccessResult reports one access's timing.
type AccessResult struct {
	Latency   int64
	L1Hit     bool
	L2Hit     bool
	Coherence bool // the directory had to act
}

// System is the coherent hierarchy.
type System struct {
	cfg SystemConfig
	l1s []*cache
	l2  *cache

	// dir is the coherence directory, indexed densely by L1 line number;
	// an entry with sharers == 0 is absent. The execution engines clamp
	// every address to the program's memory image, so the line space is
	// small and bounded and a flat slice beats a map on the access path.
	// Grown lazily by dirEnsure.
	dir []dirState

	stats  Stats
	perL1  []Stats
	lineSz int64
}

// MaxL1s is the largest L1 count a System supports: the directory tracks a
// line's sharers in one 64-bit mask.
const MaxL1s = 64

// NewSystem builds a hierarchy.
func NewSystem(cfg SystemConfig) (*System, error) {
	if cfg.NumL1s < 1 || cfg.NumL1s > MaxL1s {
		return nil, fmt.Errorf("mem: NumL1s %d out of range [1,%d]", cfg.NumL1s, MaxL1s)
	}
	if err := cfg.L1.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.L2.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		cfg:    cfg,
		l2:     newCache(cfg.L2),
		perL1:  make([]Stats, cfg.NumL1s),
		lineSz: cfg.L1.LineWords,
	}
	for i := 0; i < cfg.NumL1s; i++ {
		s.l1s = append(s.l1s, newCache(cfg.L1))
	}
	return s, nil
}

// Reset returns the hierarchy to its post-NewSystem state under cfg,
// reusing the cache arrays and the directory slice when the shape (L1
// count, cache geometries) is unchanged; a shape change rebuilds the
// arrays. Identical behaviour to a fresh NewSystem either way.
func (s *System) Reset(cfg SystemConfig) error {
	sameShape := cfg.NumL1s == s.cfg.NumL1s && cfg.L1 == s.cfg.L1 && cfg.L2 == s.cfg.L2
	if !sameShape {
		fresh, err := NewSystem(cfg)
		if err != nil {
			return err
		}
		fresh.dir = s.dir
		clear(fresh.dir)
		*s = *fresh
		return nil
	}
	s.cfg = cfg
	s.lineSz = cfg.L1.LineWords
	s.stats = Stats{}
	for i := range s.perL1 {
		s.perL1[i] = Stats{}
	}
	s.l2.reset()
	for _, c := range s.l1s {
		c.reset()
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

// L1Stats returns the counters of one L1.
func (s *System) L1Stats(i int) Stats { return s.perL1[i] }

// LineOf maps a word address to its L1 line number.
func (s *System) LineOf(addr int64) int64 { return addr / s.lineSz }

// AccessSpeculative performs one timed access on behalf of a memory
// request that has not yet reached its wave-order turn. The hierarchy
// state evolves exactly as for Access (the line is fetched and the
// directory acts — hardware cannot undo a cache fill either); the access
// is additionally tallied under Stats.Speculative.
func (s *System) AccessSpeculative(l1 int, addr int64, write bool) AccessResult {
	s.stats.Speculative++
	s.perL1[l1].Speculative++
	return s.Access(l1, addr, write)
}

// Access performs one timed access from L1 number l1 and returns its
// latency and classification.
func (s *System) Access(l1 int, addr int64, write bool) AccessResult {
	line := s.LineOf(addr)
	s.stats.Accesses++
	s.perL1[l1].Accesses++

	res := AccessResult{Latency: s.cfg.L1Latency}
	d := s.dirAt(line)

	if s.l1s[l1].lookup(line) {
		// L1 hit; a write to a shared line still needs the directory to
		// invalidate the other sharers (upgrade miss).
		s.stats.L1Hits++
		s.perL1[l1].L1Hits++
		if write && d != nil && (d.sharers&^(1<<uint(l1)) != 0) {
			s.invalidatePeers(d, l1, line)
			d.owner = l1
			d.sharers = 1 << uint(l1)
			res.Coherence = true
			res.Latency += s.cfg.CoherencePenalty
		}
		if write && d != nil {
			d.owner = l1
		}
		res.L1Hit = true
		return res
	}

	// L1 miss.
	s.stats.L1Misses++
	s.perL1[l1].L1Misses++

	if d != nil && d.sharers != 0 && d.sharers != 1<<uint(l1) {
		// Some peer holds the line: fetch it from there (dirty transfer if
		// exclusively owned) instead of going to L2/DRAM.
		res.Coherence = true
		res.Latency += s.cfg.CoherencePenalty
		s.stats.Transfers++
		s.perL1[l1].Transfers++
		if write {
			s.invalidatePeers(d, l1, line)
			d.sharers = 0
		}
	} else if s.l2.lookup(line / (s.cfg.L2.LineWords / s.cfg.L1.LineWords)) {
		res.L2Hit = true
		res.Latency += s.cfg.L2Latency
		s.stats.L2Hits++
		s.perL1[l1].L2Hits++
	} else {
		res.Latency += s.cfg.L2Latency + s.cfg.MemLatency
		s.stats.L2Misses++
		s.perL1[l1].L2Misses++
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
			s.perL1[i].Invals++
		}
	}
}
