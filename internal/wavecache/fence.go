package wavecache

import "math/bits"

// The engine fence: what a run did to memory and how much work the
// simulator did to get there, read from the Arena after a run (finished,
// faulted or cancelled). None of it is a Result field — no response body,
// cache entry or version constant knows about it — and all of it is a pure
// function of (program, policy, config), so a change that claims to leave
// simulated behaviour alone must leave it equal, and a change that claims to
// remove work can show which counter moved.
// internal/harness/testdata/engine_digests.txt pins it per cell.

// Work counts host-side work. Every counter is derived from numbers the
// engine keeps anyway, or bumped on the uncommon side of a branch, or one
// increment beside a tuple merge or a table operation.
type Work struct {
	Events     uint64 // events popped from the queue
	HeapPushes uint64 // pushes that missed the ring (far future or back-dated)

	// A delivered token takes one of deliver's three paths; the three sum to
	// Result.Tokens.
	Bypassed     uint64 // completed its instruction's tuple alone
	SlotMatched  uint64 // parked in or merged into the first-waiter slot
	TableMatched uint64 // went through the instruction's tag table

	Bound   uint64 // wave -> store-buffer bindings made
	Retired uint64 // bindings deleted when their wave (or context) retired

	MemAccess uint64 // mem.System.Access calls
	NocSend   uint64 // noc.Network.Send calls
	Submits   uint64 // waveorder.Engine.Submit calls
}

// Fence is the engine fence of the arena's last run.
type Fence struct {
	// Commit is the commit-trace digest: FoldCommit over every load and
	// store in the order issueMem committed them. The linear emulator
	// executes in program order, so for the steer binary — the same
	// optimized IR lowered both ways — it must equal the fold of the
	// emulator's trace, in every memory mode and under every recoverable
	// fault. The select and rolled binaries execute different loads
	// (if-conversion runs both arms; unrolling reorders nothing but changes
	// which loads the optimizer removes), so only their store subsequence is
	// the emulator's.
	Commit uint64
	// Stores is the same fold over the stores alone.
	Stores uint64
	// Image is ImageDigest of the final memory image.
	Image uint64
	Work  Work
}

const foldMul = 0x9E3779B97F4A7C15

// FoldCommit folds one committed memory operation into a commit-trace
// digest: order-sensitive, and a load and a store of the same word differ.
func FoldCommit(h uint64, store bool, addr, value int64) uint64 {
	x := uint64(addr) << 1
	if store {
		x |= 1
	}
	h = (bits.RotateLeft64(h, 5) ^ x) * foldMul
	return (bits.RotateLeft64(h, 5) ^ uint64(value)) * foldMul
}

// ImageDigest digests a memory image. Trailing zero words do not count, so
// engines that size the image differently agree on one program's memory, and
// the digest of an empty image is not zero, so zero can stand for "this
// engine keeps no image".
func ImageDigest(mem []int64) uint64 {
	n := len(mem)
	for n > 0 && mem[n-1] == 0 {
		n--
	}
	h := foldMul + uint64(n)
	for _, w := range mem[:n] {
		h = (bits.RotateLeft64(h, 5) ^ uint64(w)) * foldMul
	}
	return h
}

// Fence reports the engine fence of the arena's last run.
func (a *Arena) Fence() Fence {
	s := &a.s
	f := Fence{Commit: s.commit, Stores: s.commitStores, Image: ImageDigest(s.memImage), Work: s.work}
	f.Work.Events = s.seq - uint64(s.q.len())
	f.Work.HeapPushes = s.q.heapPushes
	f.Work.Bypassed = s.res.Tokens - f.Work.SlotMatched - f.Work.TableMatched
	if s.net != nil {
		f.Work.NocSend = s.net.Stats().Messages
		f.Work.Submits = s.engine.Stats().Submitted
	}
	return f
}

// Memory is the arena's memory image: the final one after a run. It is the
// simulator's own storage, overwritten by the next Run.
func (a *Arena) Memory() []int64 { return a.s.memImage }
