package wavecache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"wavescalar/internal/isa"
	"wavescalar/internal/placement"
)

// deliverTableOnly is deliver as it was before the first-waiter slot: every
// token that does not bypass goes through its instruction's tag table,
// Get -> Alloc -> Put to park and Get -> Delete -> Release to complete. It is
// kept here as the reference the three-path deliver is compared against (as
// eval_ref_test.go keeps the by-name evaluator), and it is the whole of the
// old path: nothing in it reads sim.slots.
func deliverTableOnly(s *sim, e *event) error {
	s.res.Tokens++
	gi := e.gi
	pe := s.homePE(gi)
	ps := &s.pes[pe]
	ps.used = true

	t := e.time
	if ps.waiting >= s.cfg.InputQueue {
		s.res.Overflows++
		t += overflowPenalty
	}
	ps.waiting++

	di := &s.code[gi]
	bit := uint8(1) << e.port
	var vals [3]int64
	if di.immMask|bit == di.full && di.immMask&bit == 0 {
		vals = di.immVals
		vals[e.port] = e.vals[0]
	} else {
		tbl := &s.opstore[gi]
		key := tagKey(e.tag)
		oi, ok := tbl.Get(key)
		if !ok {
			oi = int64(s.opSlab.Alloc())
			ops := s.opSlab.At(int32(oi))
			ops.have, ops.vals = di.immMask, di.immVals
			tbl.Put(key, oi)
		}
		ops := s.opSlab.At(int32(oi))
		if ops.have&bit != 0 {
			return fmt.Errorf("wavecache: token collision at %s/i%d port %d tag %v",
				s.prog.Funcs[di.fn].Name, di.id, e.port, e.tag)
		}
		ops.have |= bit
		ops.vals[e.port] = e.vals[0]
		if ops.have != di.full {
			return nil
		}
		vals = ops.vals
		tbl.Delete(key)
		s.opSlab.Release(int32(oi))
	}
	ps.waiting -= int(di.tokens)

	if ni := s.resident[gi]; ni >= 0 {
		ps.lru.touch(ni)
	} else {
		s.res.Swaps++
		t += s.cfg.SwapPenalty
		if ps.nres >= s.cfg.PEStore {
			s.resident[ps.lru.popTail()] = -1
			ps.nres--
		}
		s.resident[gi] = ps.lru.push(gi)
		ps.nres++
	}

	fireAt := t
	if ps.free > fireAt {
		fireAt = ps.free
	}
	ps.free = fireAt + 1
	s.pushFire(fireAt, gi, int32(pe), e.tag, vals)
	return nil
}

// Instructions of matchProgram, by index.
const (
	mAdd    = 1 // two token ports
	mSelect = 2 // three token ports
	mSelImm = 3 // select with an immediate predicate: ports 1 and 2 take tokens
	mAddImm = 4 // add with an immediate right operand: completes on its one token
)

// matchProgram is never run: deliver is driven token by token, and only the
// predecoded instruction table matters.
func matchProgram() *isa.Program {
	return &isa.Program{
		Entry: 0,
		Funcs: []isa.Function{{
			Name: "main",
			Instrs: []isa.Instruction{
				{Op: isa.OpNop},
				{Op: isa.OpAdd},
				{Op: isa.OpSelect},
				{Op: isa.OpSelect, ImmMask: 1 << 0, ImmVals: [3]int64{1, 0, 0}},
				{Op: isa.OpAdd, ImmMask: 1 << 1, ImmVals: [3]int64{0, 1000, 0}},
				{Op: isa.OpReturn},
			},
			Params:   []isa.InstrID{0},
			NumWaves: 1,
		}},
		MemWords: 64,
	}
}

type matchTok struct {
	gi   int32
	port uint8
	wave uint32 // the tag: context 3, this wave
}

// matchState is everything deliver can change, in comparable form.
type matchState struct {
	err       string
	fired     []event
	pes       [][4]int64 // the PEs a token has reached: index, free, nres, waiting
	tokens    uint64
	swaps     uint64
	overflows uint64
	partial   int
}

func matchObserve(s *sim, err error) matchState {
	st := matchState{tokens: s.res.Tokens, swaps: s.res.Swaps, overflows: s.res.Overflows}
	if err != nil {
		st.err = err.Error()
	}
	for s.q.len() > 0 {
		i := s.q.pop()
		st.fired = append(st.fired, s.q.slab[i])
		s.q.release(i)
	}
	for i := range s.pes {
		if ps := &s.pes[i]; ps.used {
			st.pes = append(st.pes, [4]int64{int64(i), ps.free, int64(ps.nres), int64(ps.waiting)})
		}
	}
	for i := range s.opstore {
		st.partial += s.opstore[i].Len()
		if s.slots[i].used() {
			st.partial++
		}
	}
	return st
}

// matchDrive feeds toks to the engine's deliver and to the table-only
// reference on two simulators reset alike, comparing everything observable
// after every token. It returns the last error (the same on both sides) and
// the engine side's work counters.
func matchDrive(t *testing.T, name string, inputQueue int, toks []matchTok) (string, Work) {
	t.Helper()
	var eng, ref sim
	for _, s := range []*sim{&eng, &ref} {
		cfg := DefaultConfig(2, 2)
		cfg.InputQueue = inputQueue
		if err := s.reset(matchProgram(), mustPol(placement.NewDynamicSnake(cfg.Machine)), cfg); err != nil {
			t.Fatal(err)
		}
	}
	last := ""
	for n, tk := range toks {
		e := event{time: int64(10 + 3*n), kind: evToken, gi: tk.gi, port: tk.port,
			tag: isa.Tag{Ctx: 3, Wave: tk.wave}, vals: [3]int64{int64(100*n + 7)}}
		e2 := e
		got := matchObserve(&eng, eng.deliver(&e))
		want := matchObserve(&ref, deliverTableOnly(&ref, &e2))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: token %d %+v: deliver diverged from the table-only reference\n got %+v\nwant %+v", name, n, tk, got, want)
		}
		if last = got.err; last != "" {
			break // a collision ends a run; the state behind it is never used
		}
	}
	return last, eng.work
}

// TestFirstWaiterSlotMatchesTable drives deliver's three matching paths
// against the table-only reference, on sequences built to put one, two and
// five tags in flight at one instruction, to land a tag in the table while
// the slot is busy and complete it after the slot has freed (the case that
// makes deliver ask the table before it parks a new tag), to overflow the
// input queue while tuples wait in both places, and to collide.
func TestFirstWaiterSlotMatchesTable(t *testing.T) {
	both := func(gi int32, wave uint32) []matchTok { return []matchTok{{gi, 0, wave}, {gi, 1, wave}} }
	var five []matchTok
	for w := uint32(1); w <= 5; w++ {
		five = append(five, matchTok{mAdd, 0, w})
	}
	for _, w := range []uint32{3, 1, 5, 2, 4} {
		five = append(five, matchTok{mAdd, 1, w})
	}
	for _, c := range []struct {
		name        string
		queue       int
		toks        []matchTok
		slot, table uint64 // tokens the engine must have matched on each path
	}{
		{"one tag", 16, both(mAdd, 1), 2, 0},
		{"one tag, twice", 16, append(both(mAdd, 1), both(mAdd, 2)...), 4, 0},
		{"two tags", 16, []matchTok{{mAdd, 0, 1}, {mAdd, 0, 2}, {mAdd, 1, 2}, {mAdd, 1, 1}}, 2, 2},
		{"five tags", 16, five, 2, 8},
		{"five tags, queue of two", 2, five, 2, 8},
		// Wave 2 lands in the table behind wave 1; wave 1 completes and frees
		// the slot; wave 2's partner must find it in the table, not park.
		{"table tag outlives the slot's", 16, []matchTok{{mAdd, 0, 1}, {mAdd, 0, 2}, {mAdd, 1, 1}, {mAdd, 1, 2}}, 2, 2},
		// ... and with a third wave taking the freed slot in between.
		{"table tag outlives two", 16, []matchTok{{mAdd, 0, 1}, {mAdd, 0, 2}, {mAdd, 1, 1}, {mAdd, 0, 3}, {mAdd, 1, 2}, {mAdd, 1, 3}}, 4, 2},
		{"three ports", 16, []matchTok{{mSelect, 2, 1}, {mSelect, 0, 2}, {mSelect, 0, 1}, {mSelect, 1, 2}, {mSelect, 1, 1}, {mSelect, 2, 2}}, 3, 3},
		{"one immediate", 16, []matchTok{{mSelImm, 2, 1}, {mSelImm, 1, 2}, {mSelImm, 1, 1}, {mSelImm, 2, 2}}, 2, 2},
		{"bypass beside waiters", 16, []matchTok{{mAdd, 0, 1}, {mAddImm, 0, 1}, {mAddImm, 0, 2}, {mAdd, 1, 1}}, 2, 0},
		// A port the opcode does not have parks its tuple for good.
		{"no such port", 16, []matchTok{{mAdd, 2, 1}, {mAdd, 0, 1}, {mAdd, 1, 1}, {mAdd, 0, 2}, {mAdd, 1, 2}}, 3, 2},
	} {
		if err, w := matchDrive(t, c.name, c.queue, c.toks); err != "" || w.SlotMatched != c.slot || w.TableMatched != c.table {
			t.Errorf("%s: error %q, %d tokens matched in the slot and %d in the table; want none, %d and %d",
				c.name, err, w.SlotMatched, w.TableMatched, c.slot, c.table)
		}
	}

	// Collisions, verbatim, wherever the tuple sits.
	for _, c := range []struct {
		name string
		toks []matchTok
		want string
	}{
		{"immediate port", []matchTok{{mSelImm, 0, 1}}, "wavecache: token collision at main/i3 port 0 tag <3.1>"},
		{"immediate port of a bypassing instruction", []matchTok{{mAddImm, 1, 1}}, "wavecache: token collision at main/i4 port 1 tag <3.1>"},
		{"duplicate port in the slot", []matchTok{{mAdd, 0, 1}, {mAdd, 0, 1}}, "wavecache: token collision at main/i1 port 0 tag <3.1>"},
		{"duplicate port in the table", []matchTok{{mAdd, 0, 1}, {mAdd, 1, 2}, {mAdd, 1, 2}}, "wavecache: token collision at main/i1 port 1 tag <3.2>"},
		{"immediate port, slot busy", []matchTok{{mSelImm, 1, 1}, {mSelImm, 0, 2}}, "wavecache: token collision at main/i3 port 0 tag <3.2>"},
	} {
		if err, _ := matchDrive(t, c.name, 16, c.toks); err != c.want {
			t.Errorf("%s: error %q, want %q", c.name, err, c.want)
		}
	}

	// And at random: up to eight tags in flight at each of three
	// instructions, every port of a tuple delivered once, in any order.
	rng := rand.New(rand.NewSource(27))
	for round := 0; round < 20; round++ {
		type tuple struct {
			gi      int32
			wave    uint32
			pending []uint8
		}
		var open []tuple
		next := uint32(1)
		var toks []matchTok
		for len(toks) < 400 {
			if len(open) < 1+rng.Intn(8) {
				gi := []int32{mAdd, mSelect, mSelImm}[rng.Intn(3)]
				ports := map[int32][]uint8{mAdd: {0, 1}, mSelect: {0, 1, 2}, mSelImm: {1, 2}}[gi]
				open = append(open, tuple{gi, next, append([]uint8(nil), ports...)})
				next++
			}
			i := rng.Intn(len(open))
			tu := &open[i]
			j := rng.Intn(len(tu.pending))
			toks = append(toks, matchTok{tu.gi, tu.pending[j], tu.wave})
			tu.pending = append(tu.pending[:j], tu.pending[j+1:]...)
			if len(tu.pending) == 0 {
				open = append(open[:i], open[i+1:]...)
			}
		}
		if err, w := matchDrive(t, fmt.Sprintf("random %d", round), 4+round, toks); err != "" || w.SlotMatched == 0 || w.TableMatched == 0 {
			t.Errorf("random %d: error %q, %d slot and %d table matches", round, err, w.SlotMatched, w.TableMatched)
		}
	}
}

// BenchmarkMatch is host nanoseconds per delivered token on each of deliver's
// three paths: a token that completes its tuple alone, a pair meeting in the
// instruction's first-waiter slot, and a pair meeting in the tag table
// because another tag holds the slot. Every completed tuple's firing is
// popped again, on all three alike.
func BenchmarkMatch(b *testing.B) {
	for _, c := range []struct {
		name  string
		gi    int32
		ports []uint8
		squat bool // a tag that never completes holds the slot
	}{
		{"bypass", mAddImm, []uint8{0}, false},
		{"slot", mAdd, []uint8{0, 1}, false},
		{"table", mAdd, []uint8{0, 1}, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			var s sim
			cfg := DefaultConfig(2, 2)
			if err := s.reset(matchProgram(), mustPol(placement.NewDynamicSnake(cfg.Machine)), cfg); err != nil {
				b.Fatal(err)
			}
			e := event{kind: evToken, gi: c.gi, tag: isa.Tag{Ctx: 1 << 20}}
			if c.squat {
				if err := s.deliver(&e); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.time++
				e.tag = isa.Tag{Ctx: 3, Wave: uint32(i / len(c.ports))}
				e.port = c.ports[i%len(c.ports)]
				if err := s.deliver(&e); err != nil {
					b.Fatal(err)
				}
				if s.q.len() > 0 {
					s.q.release(s.q.pop())
				}
			}
			b.StopTimer()
			want := Work{SlotMatched: uint64(b.N)}
			switch c.name {
			case "bypass":
				want = Work{}
			case "table":
				want = Work{SlotMatched: 1, TableMatched: uint64(b.N)}
			}
			if s.work != want {
				b.Fatalf("tokens took the wrong path: %+v, want %+v", s.work, want)
			}
		})
	}
}
