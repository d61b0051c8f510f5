package cfgir

import (
	"math/bits"
	"slices"
)

// RegSet is a bitset over virtual registers.
type RegSet []uint64

// NewRegSet allocates a set sized for n registers.
func NewRegSet(n int) RegSet { return make(RegSet, (n+63)/64) }

// Has reports membership.
func (s RegSet) Has(r Reg) bool {
	if r < 0 {
		return false
	}
	return s[r/64]&(1<<(uint(r)%64)) != 0
}

// Add inserts r (no-op for NoReg).
func (s RegSet) Add(r Reg) {
	if r < 0 {
		return
	}
	s[r/64] |= 1 << (uint(r) % 64)
}

// Remove deletes r.
func (s RegSet) Remove(r Reg) {
	if r < 0 {
		return
	}
	s[r/64] &^= 1 << (uint(r) % 64)
}

// UnionWith adds every member of o, reporting whether s changed.
func (s RegSet) UnionWith(o RegSet) bool {
	changed := false
	for i := range s {
		n := s[i] | o[i]
		if n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

// Clone copies the set.
func (s RegSet) Clone() RegSet { return append(RegSet(nil), s...) }

// Members lists the registers in ascending order.
func (s RegSet) Members() []Reg { return s.AppendMembers(nil) }

// AppendMembers appends the registers to buf in ascending order.
func (s RegSet) AppendMembers(buf []Reg) []Reg {
	for wi, w := range s {
		for ; w != 0; w &= w - 1 {
			buf = append(buf, Reg(wi*64+bits.TrailingZeros64(w)))
		}
	}
	return buf
}

// Count returns the cardinality.
func (s RegSet) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Compact removes unreachable blocks and renumbers the survivors in reverse
// postorder (entry first). Every pass and backend assumes a compacted
// function: all blocks reachable, IDs dense, entry == 0.
func (f *Func) Compact() {
	s := getScratch()
	defer putScratch(s)
	f.compact(&s.opt.dfs)
}

// dfs is the storage of a depth-first walk over a function's blocks and of
// Compact's renumbering, reused across rounds, functions and calls.
type dfs struct {
	seen   []bool
	stack  []dfsFrame
	order  []int
	remap  []int
	blocks []*Block // Compact's copy of the old block list, cleared after use
}

type dfsFrame struct{ id, next int }

// compact is Compact with its storage. The block list is rewritten in
// place.
func (f *Func) compact(w *dfs) {
	order := w.rpo(f)
	remap := w.remap[:0]
	for range f.Blocks {
		remap = append(remap, -1)
	}
	w.remap = remap
	for newID, oldID := range order {
		remap[oldID] = newID
	}
	old := append(w.blocks[:0], f.Blocks...)
	for newID, oldID := range order {
		b := old[oldID]
		b.ID = newID
		switch b.Term.Kind {
		case TJump:
			b.Term.Then = remap[b.Term.Then]
		case TBranch:
			b.Term.Then = remap[b.Term.Then]
			b.Term.Else = remap[b.Term.Else]
		}
		f.Blocks[newID] = b
	}
	clear(f.Blocks[len(order):])
	f.Blocks = f.Blocks[:len(order)]
	clear(old)
	w.blocks = old[:0]
	f.Entry = 0
}

// rpo computes reverse postorder over reachable blocks starting at entry.
func (f *Func) rpo() []int {
	var w dfs
	return w.rpo(f)
}

// rpo is the reverse postorder of f's reachable blocks, in w's storage:
// successors are visited in Succs order, as a recursive walk would.
func (w *dfs) rpo(f *Func) []int {
	seen := append(w.seen[:0], make([]bool, len(f.Blocks))...)
	post, stack := w.order[:0], append(w.stack[:0], dfsFrame{id: f.Entry})
	seen[f.Entry] = true
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		succs := f.Blocks[top.id].Succs()
		if top.next == len(succs) {
			post = append(post, top.id)
			stack = stack[:len(stack)-1]
			continue
		}
		next := succs[top.next]
		top.next++
		if !seen[next] {
			seen[next] = true
			stack = append(stack, dfsFrame{id: next})
		}
	}
	w.seen, w.stack, w.order = seen, stack, post
	slices.Reverse(post)
	return post
}

// Preds returns, for each block, the list of predecessor block IDs. The
// function must be compacted.
func (f *Func) Preds() [][]int {
	preds := make([][]int, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b.ID)
		}
	}
	return preds
}

// Edge is a CFG edge.
type Edge struct{ From, To int }

// BackEdges identifies the back edges of a compacted function under a DFS
// from the entry. The targets of back edges are the loop headers; the wave
// partitioner places WAVE-ADVANCE on exactly these edges plus loop entries.
func (f *Func) BackEdges() map[Edge]bool {
	back := make(map[Edge]bool)
	state := make([]uint8, len(f.Blocks)) // 0 unvisited, 1 on stack, 2 done
	var dfs func(int)
	dfs = func(id int) {
		state[id] = 1
		for _, s := range f.Blocks[id].Succs() {
			switch state[s] {
			case 0:
				dfs(s)
			case 1:
				back[Edge{From: id, To: s}] = true
			}
		}
		state[id] = 2
	}
	dfs(f.Entry)
	return back
}

// LoopHeaders returns the set of blocks targeted by back edges.
func (f *Func) LoopHeaders() map[int]bool {
	headers := make(map[int]bool)
	for e := range f.BackEdges() {
		headers[e.To] = true
	}
	return headers
}

// Liveness computes per-block live-in and live-out register sets with the
// standard backward iterative dataflow, into sets of their own. The
// function must be compacted.
func (f *Func) Liveness() (liveIn, liveOut []RegSet) {
	var l LiveSets
	l.Compute(f)
	return l.In, l.Out
}

// LiveSets is liveness storage that Compute refills: the per-block live-in
// and live-out sets of the function last computed. A pass that recomputes
// liveness keeps one and pays for its storage once; the sets of one
// Compute are overwritten by the next.
type LiveSets struct {
	In, Out []RegSet
	sets    []RegSet // In, Out, then each block's definitions
	slab    []uint64 // the sets' words
	buf     []Reg
}

// Compute fills l with f's liveness. The function must be compacted.
func (l *LiveSets) Compute(f *Func) {
	n := len(f.Blocks)
	words := (f.NumRegs + 63) / 64
	slab := slices.Grow(l.slab[:0], 3*n*words)[:3*n*words]
	clear(slab)
	l.slab = slab
	sets := slices.Grow(l.sets[:0], 3*n)[:3*n]
	l.sets = sets
	for i := range sets {
		sets[i], slab = slab[:words:words], slab[words:]
	}
	liveIn, liveOut, def := sets[:n:n], sets[n:2*n:2*n], sets[2*n:]
	l.In, l.Out = liveIn, liveOut
	// A block's live-in set starts as the registers it reads before it
	// writes them.
	for i, b := range f.Blocks {
		use := liveIn[i]
		for j := range b.Instrs {
			in := &b.Instrs[j]
			l.buf = in.Uses(l.buf[:0])
			for _, r := range l.buf {
				if !def[i].Has(r) {
					use.Add(r)
				}
			}
			if in.HasDst() {
				def[i].Add(in.Dst)
			}
		}
		switch b.Term.Kind {
		case TBranch:
			if !def[i].Has(b.Term.Cond) {
				use.Add(b.Term.Cond)
			}
		case TRet:
			if !def[i].Has(b.Term.Val) {
				use.Add(b.Term.Val)
			}
		}
	}
	// Iterate to fixpoint (postorder gives fast convergence; simple loop
	// over all blocks is fine at our sizes). Live-in sets only grow and
	// hold their uses from the start, so in ∪= out − def reaches the
	// fixpoint of in = use ∪ (out − def).
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			in, out := liveIn[i], liveOut[i]
			for _, s := range f.Blocks[i].Succs() {
				if out.UnionWith(liveIn[s]) {
					changed = true
				}
			}
			for w := range in {
				if v := in[w] | out[w]&^def[i][w]; v != in[w] {
					in[w] = v
					changed = true
				}
			}
		}
	}
}
