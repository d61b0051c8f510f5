// Package tagtable provides the allocation-free associative containers the
// simulators' hot paths are built on: an open-addressed hash table from
// uint64 keys to int64 values (Table), and a generic index-addressed slab
// with a freelist (Slab).
//
// A Table replaces map[K]V on paths that insert and delete millions of
// short-lived entries per run (per-instruction operand matching, PE
// residency sets, wave-to-buffer bindings, context metadata): it probes
// linearly from the key's hash, deletes by backward shift so no tombstones
// accumulate, and after its backing array has grown to the run's high-water
// mark it never touches the allocator again. Reset clears the table while
// keeping the backing array, which is what lets a simulator arena be reused
// across runs without reallocating.
//
// Determinism: a Table's observable behaviour (Get/Put/Delete results and
// Len) is a pure function of the operation sequence, like a map's. Range
// visits entries in slot order, which is itself a deterministic function of
// the insertion/deletion history — unlike Go's randomized map iteration —
// so even diagnostics built on Range are reproducible.
package tagtable

// slot is one table position. A slot is empty iff used is false; key zero
// is a legal key (the boot tag Ctx=0/Wave=0 packs to zero), so emptiness
// cannot be encoded in the key itself.
type slot struct {
	key  uint64
	val  int64
	used bool
}

// Table is an open-addressed uint64 -> int64 hash table with linear
// probing and backward-shift deletion. The zero value is an empty table
// ready for use. Not safe for concurrent use.
type Table struct {
	slots []slot
	n     int
	mask  uint64
}

// hash is the splitmix64 finalizer: full-avalanche mixing so that packed
// tags (which differ only in low bits) spread across the table.
func hash(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// Len reports the number of stored entries.
func (t *Table) Len() int { return t.n }

// Get looks a key up.
func (t *Table) Get(key uint64) (int64, bool) {
	if t.n == 0 {
		return 0, false
	}
	i := hash(key) & t.mask
	for {
		s := &t.slots[i]
		if !s.used {
			return 0, false
		}
		if s.key == key {
			return s.val, true
		}
		i = (i + 1) & t.mask
	}
}

// Put inserts or overwrites a key.
func (t *Table) Put(key uint64, val int64) {
	if len(t.slots) == 0 || t.n >= len(t.slots)*3/4 {
		t.grow()
	}
	i := hash(key) & t.mask
	for {
		s := &t.slots[i]
		if !s.used {
			s.key, s.val, s.used = key, val, true
			t.n++
			return
		}
		if s.key == key {
			s.val = val
			return
		}
		i = (i + 1) & t.mask
	}
}

// Delete removes a key, reporting whether it was present. Removal shifts
// the following probe chain back over the hole, so lookups never cross
// tombstones and long-running churn cannot degrade the table.
func (t *Table) Delete(key uint64) bool {
	if t.n == 0 {
		return false
	}
	i := hash(key) & t.mask
	for {
		s := &t.slots[i]
		if !s.used {
			return false
		}
		if s.key == key {
			break
		}
		i = (i + 1) & t.mask
	}
	// Backward-shift: pull each displaced successor into the hole unless
	// its home position lies cyclically after the hole.
	j := i
	for {
		j = (j + 1) & t.mask
		s := &t.slots[j]
		if !s.used {
			break
		}
		home := hash(s.key) & t.mask
		if (j-home)&t.mask >= (j-i)&t.mask {
			t.slots[i] = *s
			i = j
		}
	}
	t.slots[i] = slot{}
	t.n--
	return true
}

// Range calls f for every entry in slot order; returning false stops the
// walk. The table must not be mutated during the walk.
func (t *Table) Range(f func(key uint64, val int64) bool) {
	for i := range t.slots {
		if t.slots[i].used && !f(t.slots[i].key, t.slots[i].val) {
			return
		}
	}
}

// Reset empties the table, keeping its backing array for reuse.
func (t *Table) Reset() {
	if t.n == 0 {
		return
	}
	clear(t.slots)
	t.n = 0
}

// grow rehashes into a table of at least twice the occupancy.
func (t *Table) grow() {
	newCap := 8
	if len(t.slots) > 0 {
		newCap = len(t.slots) * 2
	}
	old := t.slots
	t.slots = make([]slot, newCap)
	t.mask = uint64(newCap - 1)
	t.n = 0
	for i := range old {
		if old[i].used {
			t.Put(old[i].key, old[i].val)
		}
	}
}

// Slab is an index-addressed allocator for fixed-type records with a
// freelist: Alloc returns the index of a zeroed record, Release recycles
// it, and Reset reclaims everything while keeping the backing array. After
// the backing array reaches a workload's high-water mark, Alloc/Release
// never touch the Go allocator. Indices — not pointers — are the stable
// handles: the backing array may move when it grows.
type Slab[T any] struct {
	items []T
	free  []int32
}

// Alloc returns the index of a zeroed record.
func (s *Slab[T]) Alloc() int32 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		var zero T
		s.items[i] = zero
		return i
	}
	var zero T
	s.items = append(s.items, zero)
	return int32(len(s.items) - 1)
}

// At returns the record at index i. The pointer is invalidated by the next
// Alloc (growth may move the backing array): take it fresh, use it, drop it.
func (s *Slab[T]) At(i int32) *T { return &s.items[i] }

// Release recycles a record's index. Releasing an index twice corrupts the
// freelist; callers own that discipline, as with any manual allocator.
func (s *Slab[T]) Release(i int32) { s.free = append(s.free, i) }

// Reset reclaims every record while keeping both backing arrays.
func (s *Slab[T]) Reset() {
	s.items = s.items[:0]
	s.free = s.free[:0]
}

// Len reports the number of live (allocated, not released) records.
func (s *Slab[T]) Len() int { return len(s.items) - len(s.free) }

// Cap reports the backing array's high-water mark. It is a test reference:
// only wavecache's tests call it, to count the records a slab ever held.
func (s *Slab[T]) Cap() int { return cap(s.items) }
