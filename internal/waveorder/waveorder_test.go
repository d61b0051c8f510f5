package waveorder

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"wavescalar/internal/isa"
	"wavescalar/internal/trace"
)

// chainBuilder constructs a synthetic, correctly annotated program-order
// request stream the way the compiler would: waves of linked operations,
// nested call splices, a MemEnd terminator per context.
type chainBuilder struct {
	rng     *rand.Rand
	nextCtx uint32
	out     []*Request // program order
}

// buildWave appends one wave of n operations for ctx/wave, linking each
// consecutive pair on at least one side (randomly Pred, Succ, or both), and
// possibly recursing into child contexts at call slots.
func (b *chainBuilder) buildWave(ctx, wave uint32, n int, depth int, last bool) {
	seqs := b.rng.Perm(n) // arbitrary (not monotone) sequence labels
	for i := 0; i < n; i++ {
		r := &Request{
			Ctx:  ctx,
			Wave: wave,
			Kind: isa.MemNop,
			Seq:  int32(seqs[i]),
			Pred: isa.SeqWildcard,
			Succ: isa.SeqWildcard,
		}
		switch b.rng.Intn(4) {
		case 0:
			r.Kind = isa.MemLoad
			r.Addr = int64(b.rng.Intn(64))
		case 1:
			r.Kind = isa.MemStore
			r.Addr = int64(b.rng.Intn(64))
			r.Value = b.rng.Int63()
		}
		if i == 0 {
			r.Pred = isa.SeqStart
		}
		if i == n-1 {
			if last {
				// Context ends inside this wave.
				r.Kind = isa.MemEnd
			}
			r.Succ = isa.SeqEnd
		}
		// Link to the previous op in this wave (skipping any spliced child
		// requests): choose which side of the link is known statically.
		if i > 0 {
			prev := b.lastOfWave(ctx, wave)
			switch b.rng.Intn(3) {
			case 0:
				r.Pred = prev.Seq
			case 1:
				prev.Succ = r.Seq
			default:
				r.Pred = prev.Seq
				prev.Succ = r.Seq
			}
		}
		// Occasionally make this op a call slot with a nested context.
		if depth < 3 && r.Kind != isa.MemEnd && b.rng.Intn(6) == 0 {
			r.Kind = isa.MemCall
			b.nextCtx++
			r.ChildCtx = b.nextCtx
			b.out = append(b.out, r)
			b.buildCtx(r.ChildCtx, depth+1)
			continue
		}
		b.out = append(b.out, r)
	}
}

func (b *chainBuilder) lastOfWave(ctx, wave uint32) *Request {
	for i := len(b.out) - 1; i >= 0; i-- {
		if b.out[i].Ctx == ctx && b.out[i].Wave == wave {
			return b.out[i]
		}
	}
	return nil
}

// buildCtx emits 1..4 waves for a fresh context; the final wave ends the
// context.
func (b *chainBuilder) buildCtx(ctx uint32, depth int) {
	waves := 1 + b.rng.Intn(4)
	for w := 0; w < waves; w++ {
		n := 1 + b.rng.Intn(6)
		b.buildWave(ctx, uint32(w), n, depth, w == waves-1)
	}
}

func buildStream(seed int64) []*Request {
	b := &chainBuilder{rng: rand.New(rand.NewSource(seed))}
	b.buildCtx(0, 0)
	return b.out
}

// runPermuted submits the stream in a random order and returns the issue
// order observed.
func runPermuted(t *testing.T, stream []*Request, seed int64) []*Request {
	t.Helper()
	var issued []*Request
	e := NewEngine(0, func(r *Request) { issued = append(issued, r) })
	perm := rand.New(rand.NewSource(seed)).Perm(len(stream))
	for _, i := range perm {
		e.Submit(stream[i])
	}
	if !e.Done() {
		t.Fatalf("engine not done after all submissions\n%s", e.DebugState())
	}
	if e.Pending() != 0 {
		t.Fatalf("engine has %d pending requests after done", e.Pending())
	}
	return issued
}

func TestIssueOrderEqualsProgramOrderSingleWave(t *testing.T) {
	// Hand-built wave: 3 ops linked Start->a->b->End, submitted reversed.
	mk := func(seq, pred, succ int32) *Request {
		return &Request{Ctx: 0, Wave: 0, Kind: isa.MemNop, Seq: seq, Pred: pred, Succ: succ}
	}
	a := mk(0, isa.SeqStart, 1)
	bb := mk(1, 0, isa.SeqWildcard)
	c := &Request{Ctx: 0, Wave: 0, Kind: isa.MemEnd, Seq: 2, Pred: 1, Succ: isa.SeqEnd}
	var got []int32
	e := NewEngine(0, func(r *Request) { got = append(got, r.Seq) })
	e.Submit(c)
	e.Submit(bb)
	if len(got) != 0 {
		t.Fatalf("issued %v before chain head arrived", got)
	}
	e.Submit(a)
	want := []int32{0, 1, 2}
	if len(got) != 3 {
		t.Fatalf("issued %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("issued %v, want %v", got, want)
		}
	}
	if !e.Done() {
		t.Fatal("engine should be done")
	}
}

func TestWildcardLinkEitherSide(t *testing.T) {
	// b's Pred is a wildcard but a's Succ names b: the chain must still
	// resolve (branch target knows nothing, branch source knows target).
	a := &Request{Kind: isa.MemNop, Seq: 5, Pred: isa.SeqStart, Succ: 9}
	b := &Request{Kind: isa.MemEnd, Seq: 9, Pred: isa.SeqWildcard, Succ: isa.SeqEnd}
	var got []int32
	e := NewEngine(0, func(r *Request) { got = append(got, r.Seq) })
	e.Submit(b)
	e.Submit(a)
	if len(got) != 2 || got[0] != 5 || got[1] != 9 {
		t.Fatalf("issue order %v, want [5 9]", got)
	}
}

func TestWavesIssueInWaveNumberOrder(t *testing.T) {
	w0 := &Request{Wave: 0, Kind: isa.MemStore, Seq: 0, Pred: isa.SeqStart, Succ: isa.SeqEnd, Addr: 1, Value: 10}
	w1 := &Request{Wave: 1, Kind: isa.MemStore, Seq: 0, Pred: isa.SeqStart, Succ: isa.SeqEnd, Addr: 1, Value: 20}
	w2 := &Request{Wave: 2, Kind: isa.MemEnd, Seq: 0, Pred: isa.SeqStart, Succ: isa.SeqEnd}
	var got []int64
	e := NewEngine(0, func(r *Request) {
		if r.Kind == isa.MemStore {
			got = append(got, r.Value)
		}
	})
	e.Submit(w2)
	e.Submit(w1)
	if len(got) != 0 {
		t.Fatalf("later waves issued before wave 0: %v", got)
	}
	e.Submit(w0)
	if len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("store order %v, want [10 20]", got)
	}
	if !e.Done() {
		t.Fatal("not done")
	}
}

func TestCallSpliceNesting(t *testing.T) {
	// Parent: store(1) ; call child ; store(3). Child: store(2) ; end.
	p1 := &Request{Ctx: 0, Kind: isa.MemStore, Seq: 0, Pred: isa.SeqStart, Succ: 1, Addr: 0, Value: 1}
	call := &Request{Ctx: 0, Kind: isa.MemCall, Seq: 1, Pred: 0, Succ: 2, ChildCtx: 7}
	p3 := &Request{Ctx: 0, Kind: isa.MemStore, Seq: 2, Pred: 1, Succ: isa.SeqWildcard, Addr: 0, Value: 3}
	pEnd := &Request{Ctx: 0, Kind: isa.MemEnd, Seq: 3, Pred: 2, Succ: isa.SeqEnd}
	c2 := &Request{Ctx: 7, Kind: isa.MemStore, Seq: 0, Pred: isa.SeqStart, Succ: 1, Addr: 0, Value: 2}
	cEnd := &Request{Ctx: 7, Kind: isa.MemEnd, Seq: 1, Pred: 0, Succ: isa.SeqEnd}

	for seed := int64(0); seed < 20; seed++ {
		var got []int64
		e := NewEngine(0, func(r *Request) {
			if r.Kind == isa.MemStore {
				got = append(got, r.Value)
			}
		})
		all := []*Request{copyReq(p1), copyReq(call), copyReq(p3), copyReq(pEnd), copyReq(c2), copyReq(cEnd)}
		for _, i := range rand.New(rand.NewSource(seed)).Perm(len(all)) {
			e.Submit(all[i])
		}
		if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
			t.Fatalf("seed %d: store order %v, want [1 2 3]", seed, got)
		}
		if !e.Done() {
			t.Fatalf("seed %d: not done\n%s", seed, e.DebugState())
		}
	}
}

func copyReq(r *Request) *Request { c := *r; return &c }

func TestCallSlotClosingWave(t *testing.T) {
	// The call is the last slot of wave 0; wave 1 must wait for the child.
	call := &Request{Ctx: 0, Wave: 0, Kind: isa.MemCall, Seq: 0, Pred: isa.SeqStart, Succ: isa.SeqEnd, ChildCtx: 3}
	w1 := &Request{Ctx: 0, Wave: 1, Kind: isa.MemStore, Seq: 0, Pred: isa.SeqStart, Succ: 1, Addr: 0, Value: 9}
	end := &Request{Ctx: 0, Wave: 1, Kind: isa.MemEnd, Seq: 1, Pred: 0, Succ: isa.SeqEnd}
	childStore := &Request{Ctx: 3, Wave: 0, Kind: isa.MemStore, Seq: 0, Pred: isa.SeqStart, Succ: 1, Addr: 0, Value: 4}
	childEnd := &Request{Ctx: 3, Wave: 0, Kind: isa.MemEnd, Seq: 1, Pred: 0, Succ: isa.SeqEnd}

	var got []int64
	e := NewEngine(0, func(r *Request) {
		if r.Kind == isa.MemStore {
			got = append(got, r.Value)
		}
	})
	e.Submit(w1)
	e.Submit(end)
	e.Submit(call)
	if len(got) != 0 {
		t.Fatalf("wave 1 issued before child context finished: %v", got)
	}
	e.Submit(childStore)
	e.Submit(childEnd)
	if len(got) != 2 || got[0] != 4 || got[1] != 9 {
		t.Fatalf("store order %v, want [4 9]", got)
	}
	if !e.Done() {
		t.Fatal("not done")
	}
}

// TestRandomStreamsProperty is the central invariant: for randomly generated
// correctly-annotated streams submitted in arbitrary arrival order, the
// engine issues every request exactly once, in program order.
func TestRandomStreamsProperty(t *testing.T) {
	prop := func(streamSeed, permSeed int64) bool {
		stream := buildStream(streamSeed)
		issued := runPermuted(t, stream, permSeed)
		if len(issued) != len(stream) {
			return false
		}
		for i := range stream {
			if issued[i] != stream[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	stream := buildStream(42)
	e := NewEngine(0, func(*Request) {})
	for _, r := range stream {
		e.Submit(r)
	}
	s := e.Stats()
	if s.Submitted != uint64(len(stream)) || s.Issued != uint64(len(stream)) {
		t.Fatalf("submitted=%d issued=%d want both %d", s.Submitted, s.Issued, len(stream))
	}
	if s.Loads+s.Stores+s.Nops+s.Calls+s.Ends != s.Issued {
		t.Fatalf("kind counters %d+%d+%d+%d+%d do not sum to issued %d",
			s.Loads, s.Stores, s.Nops, s.Calls, s.Ends, s.Issued)
	}
	// In-order submission should never buffer more than one wave's worth;
	// at minimum MaxPending must be >= 1.
	if s.MaxPending < 1 {
		t.Fatalf("MaxPending = %d", s.MaxPending)
	}
}

func TestDoubleSpliceError(t *testing.T) {
	e := NewEngine(0, func(*Request) {})
	// Context 0 splices in context 5; context 5 then tries to splice in
	// itself, which re-parents an already-spliced context: a malformed
	// binary, reported as an error rather than a process crash.
	if err := e.Submit(&Request{Ctx: 0, Kind: isa.MemCall, Seq: 0, Pred: isa.SeqStart, Succ: 1, ChildCtx: 5}); err != nil {
		t.Fatalf("first splice: %v", err)
	}
	err := e.Submit(&Request{Ctx: 5, Kind: isa.MemCall, Seq: 0, Pred: isa.SeqStart, Succ: 1, ChildCtx: 5})
	if err == nil || !strings.Contains(err.Error(), "spliced twice") {
		t.Fatalf("expected double-splice error, got %v", err)
	}
}

func TestSubmitAfterEndError(t *testing.T) {
	e := NewEngine(0, func(*Request) {})
	if err := e.Submit(&Request{Ctx: 0, Kind: isa.MemEnd, Seq: 0, Pred: isa.SeqStart, Succ: isa.SeqEnd}); err != nil {
		t.Fatalf("program end: %v", err)
	}
	err := e.Submit(&Request{Ctx: 1, Kind: isa.MemNop, Seq: 1, Pred: 0, Succ: isa.SeqEnd})
	if err == nil || !strings.Contains(err.Error(), "after program memory sequence ended") {
		t.Fatalf("expected submit-after-end error, got %v", err)
	}
}

func TestUnknownKindError(t *testing.T) {
	e := NewEngine(0, func(*Request) {})
	err := e.Submit(&Request{Ctx: 0, Kind: isa.MemKind(200), Seq: 0, Pred: isa.SeqStart, Succ: isa.SeqEnd})
	if err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Fatalf("expected unknown-kind error, got %v", err)
	}
	// The malformed request must not be counted as issued.
	if s := e.Stats(); s.Issued != 0 {
		t.Fatalf("issued=%d after rejected request, want 0", s.Issued)
	}
}

func BenchmarkEngineInOrder(b *testing.B) {
	stream := buildStream(7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine(0, func(*Request) {})
		for _, r := range stream {
			rc := *r
			e.Submit(&rc)
		}
	}
}

// submitMapOnly is Submit as it was before the issue-point shortcut: every
// request finds its context through the map. It is kept as the reference
// TestSubmitOffTopMatchesMapLookup holds Submit to.
func submitMapOnly(e *Engine, r *Request) error {
	if e.root.ended {
		return fmt.Errorf("waveorder: request %v after program memory sequence ended", r)
	}
	c := e.ctxs[r.Ctx]
	if c == nil {
		c = e.newCtxState(r.Ctx)
		e.ctxs[r.Ctx] = c
	}
	e.waveOf(c, r.Wave).add(r)
	e.pending++
	if e.pending > e.stats.MaxPending {
		e.stats.MaxPending = e.pending
	}
	e.stats.Submitted++
	if e.tr != nil {
		e.tr.Event(e.clock(), trace.KindMemSubmit, -1, int64(e.pending), 0)
	}
	return e.drain()
}

// TestSubmitOffTopMatchesMapLookup: Submit looks at the issue point's
// context first and goes to the map only for a request of another context.
// The two off-top cases are a caller's later wave arriving while its callee
// is spliced in, and a child's request arriving before the MemCall that
// splices it has issued (its context is made on the spot). Two hand-built
// schedules take each once; then random call-nested streams in random
// arrival order, which must take both often, must issue in the same order,
// with the same stats, as the map-only reference.
func TestSubmitOffTopMatchesMapLookup(t *testing.T) {
	type outcome struct {
		issued []*Request
		stats  Stats
		err    string
	}
	// run submits stream in the order perm gives, counting how many
	// requests Submit found off the issue point, and of which kind.
	run := func(stream []*Request, perm []int, submit func(*Engine, *Request) error) (o outcome, callerLater, childEarly int) {
		e := NewEngine(0, func(r *Request) { o.issued = append(o.issued, r) })
		for _, i := range perm {
			r := stream[i]
			if e.top != nil && e.top.id != r.Ctx {
				// A context on the splice stack below the issue point is a
				// caller; any other is a child whose call has not issued.
				if c := e.ctxs[r.Ctx]; c != nil && (c == e.root || c.spliced) {
					callerLater++
				} else {
					childEarly++
				}
			}
			if err := submit(e, r); err != nil {
				o.err = err.Error()
				break
			}
		}
		o.stats = e.Stats()
		return o, callerLater, childEarly
	}
	check := func(name string, stream []*Request, perm []int) (int, int) {
		t.Helper()
		got, callerLater, childEarly := run(stream, perm, (*Engine).Submit)
		want, _, _ := run(stream, perm, submitMapOnly)
		if got.err != want.err || got.stats != want.stats || len(got.issued) != len(want.issued) {
			t.Fatalf("%s: Submit issued %d (%+v, err %q), map-only %d (%+v, err %q)",
				name, len(got.issued), got.stats, got.err, len(want.issued), want.stats, want.err)
		}
		for i := range got.issued {
			if got.issued[i] != want.issued[i] {
				t.Fatalf("%s: issue %d is %v, map-only issues %v", name, i, got.issued[i], want.issued[i])
			}
		}
		if len(got.issued) != len(stream) {
			t.Fatalf("%s: %d of %d requests issued", name, len(got.issued), len(stream))
		}
		return callerLater, childEarly
	}

	// Parent ctx 0: wave 0 is a call of ctx 3, wave 1 a store and the end.
	// Child ctx 3: a store and its end.
	stream := []*Request{
		{Ctx: 0, Wave: 0, Kind: isa.MemCall, Seq: 0, Pred: isa.SeqStart, Succ: isa.SeqEnd, ChildCtx: 3},
		{Ctx: 3, Wave: 0, Kind: isa.MemStore, Seq: 0, Pred: isa.SeqStart, Succ: 1, Addr: 1, Value: 4},
		{Ctx: 3, Wave: 0, Kind: isa.MemEnd, Seq: 1, Pred: 0, Succ: isa.SeqEnd},
		{Ctx: 0, Wave: 1, Kind: isa.MemStore, Seq: 0, Pred: isa.SeqStart, Succ: 1, Addr: 1, Value: 9},
		{Ctx: 0, Wave: 1, Kind: isa.MemEnd, Seq: 1, Pred: 0, Succ: isa.SeqEnd},
	}
	if callerLater, childEarly := check("caller's later wave", stream, []int{0, 3, 4, 1, 2}); callerLater != 2 || childEarly != 0 {
		t.Errorf("caller's later wave: %d caller / %d child requests off the issue point, want 2 / 0", callerLater, childEarly)
	}
	if callerLater, childEarly := check("child before its call", stream, []int{1, 2, 0, 3, 4}); callerLater != 0 || childEarly != 2 {
		t.Errorf("child before its call: %d caller / %d child requests off the issue point, want 0 / 2", callerLater, childEarly)
	}

	var callerLater, childEarly int
	for seed := int64(0); seed < 300; seed++ {
		stream := buildStream(seed)
		cl, ce := check("random", stream, rand.New(rand.NewSource(seed+1000)).Perm(len(stream)))
		callerLater, childEarly = callerLater+cl, childEarly+ce
	}
	if callerLater == 0 || childEarly == 0 {
		t.Fatalf("random streams never reached a context off the issue point: %d caller / %d child requests", callerLater, childEarly)
	}
	t.Logf("random streams: %d caller-later and %d child-early requests off the issue point", callerLater, childEarly)
}
