package fault

import (
	"errors"
	"strings"
	"testing"
)

// fixedHop is a transport with a constant fault-free latency.
func fixedHop(send int64) int64 { return send + 5 }

// lossy returns a config that loses path p's messages at rate.
func lossy(p Path, rate float64) Config {
	if p == Operand {
		return Config{Seed: 1, DropRate: rate}
	}
	return Config{Seed: 1, MemLossRate: rate}
}

// bothPaths runs a subtest per message path.
func bothPaths(t *testing.T, f func(t *testing.T, p Path)) {
	for p := Path(0); p < numPaths; p++ {
		t.Run(p.String(), func(t *testing.T) { f(t, p) })
	}
}

// TestInjectorDeterminism: identical (seed, config) pairs must draw
// identical fault sequences — the property every reproducible-faulty-run
// guarantee rests on.
func TestInjectorDeterminism(t *testing.T) {
	cfg := Config{Seed: 99, DropRate: 0.2, DelayRate: 0.1, MemLossRate: 0.15}
	a, err := NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		for p := Path(0); p < numPaths; p++ {
			a1, e1 := a.Transit(p, int64(i), 0, fixedHop)
			a2, e2 := b.Transit(p, int64(i), 0, fixedHop)
			if a1 != a2 || (e1 == nil) != (e2 == nil) {
				t.Fatalf("%s message %d diverged: (%d,%v) vs (%d,%v)", p, i, a1, e1, a2, e2)
			}
		}
	}
	for p := Path(0); p < numPaths; p++ {
		if a.Stats(p) != b.Stats(p) || a.Stats(p).Drops == 0 || a.Stats(p).Delayed == 0 {
			t.Fatalf("%s stats diverged or empty: %+v vs %+v", p, a.Stats(p), b.Stats(p))
		}
	}
}

// TestStreamIndependence: enabling the memory-loss stream must not change
// which operand messages drop — separate streams per message path.
func TestStreamIndependence(t *testing.T) {
	base, _ := NewInjector(Config{Seed: 5, DropRate: 0.1})
	both, _ := NewInjector(Config{Seed: 5, DropRate: 0.1, MemLossRate: 0.5})
	for i := 0; i < 10_000; i++ {
		a1, e1 := base.Transit(Operand, 0, 0, fixedHop)
		both.Transit(StoreBuffer, 0, 0, fixedHop) // interleave mem draws; operand stream must not notice
		a2, e2 := both.Transit(Operand, 0, 0, fixedHop)
		if a1 != a2 || (e1 == nil) != (e2 == nil) {
			t.Fatalf("operand message %d changed when mem faults were enabled", i)
		}
	}
	if base.Stats(Operand) != both.Stats(Operand) || both.Stats(StoreBuffer).Drops == 0 {
		t.Fatalf("operand %+v vs %+v; store-buffer %+v", base.Stats(Operand), both.Stats(Operand), both.Stats(StoreBuffer))
	}
}

func TestRatesRoughlyHonored(t *testing.T) {
	in, _ := NewInjector(Config{Seed: 1, DropRate: 0.25, MaxRetries: 64})
	const n = 100_000
	for i := 0; i < n; i++ {
		if _, err := in.Transit(Operand, 0, 0, fixedHop); err != nil {
			t.Fatal(err)
		}
	}
	drops := float64(in.Stats(Operand).Drops)
	got := drops / (drops + n) // every attempt is one draw: the drops, then the delivery
	if got < 0.23 || got > 0.27 {
		t.Fatalf("drop rate %.4f far from configured 0.25", got)
	}
}

func TestDefectMap(t *testing.T) {
	cfg := Config{Seed: 3, DefectRate: 0.3}
	m1 := DefectMap(cfg, 64)
	m2 := DefectMap(cfg, 64)
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatal("defect map not deterministic")
		}
	}
	if n := CountDefects(m1); n == 0 || n == 64 {
		t.Fatalf("implausible defect count %d for rate 0.3", n)
	}
	// Saturating rate must still leave at least one usable PE.
	if n := CountDefects(DefectMap(Config{Seed: 3, DefectRate: 0.9999}, 16)); n >= 16 {
		t.Fatalf("defect map killed all %d PEs", n)
	}
	if DefectMap(Config{}, 64) != nil {
		t.Fatal("zero rate should produce no map")
	}
	if DefectMap(cfg, 0) != nil {
		t.Fatal("zero PEs should produce no map")
	}
}

func TestTimeoutBackoff(t *testing.T) {
	in, _ := NewInjector(Config{Seed: 1, DropRate: 0.5}) // defaults: timeout 64
	if in.Timeout(0) != 64 || in.Timeout(1) != 128 || in.Timeout(3) != 512 {
		t.Fatalf("backoff sequence wrong: %d %d %d", in.Timeout(0), in.Timeout(1), in.Timeout(3))
	}
	if in.Timeout(10) != in.Timeout(50) {
		t.Fatal("backoff must cap, not overflow")
	}
}

// TestTransitRetryTiming: a message lost k times is sent at its injection
// cycle plus the first k ack timeouts, the transport is charged exactly
// once, at that send time, and a transient delay lands on top. k and the
// delay are read back from the path's own counters, so the counters are
// held to the timing too.
func TestTransitRetryTiming(t *testing.T) {
	bothPaths(t, func(t *testing.T, p Path) {
		cfg := lossy(p, 0.3)
		cfg.DelayRate, cfg.DelayCycles, cfg.AckTimeout, cfg.MaxRetries = 0.2, 9, 10, 40
		in, err := NewInjector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Not time-invariant, so a transport evaluated at the wrong cycle shows.
		hop := func(send int64) int64 { return send + 5 + send%7 }
		for i := 0; i < 400; i++ {
			now, before := int64(1000+13*i), in.Stats(p)
			calls, sentAt := 0, int64(-1)
			arr, err := in.Transit(p, now, 3, func(send int64) int64 {
				calls++
				sentAt = send
				return hop(send)
			})
			if err != nil {
				t.Fatalf("message %d: %v", i, err)
			}
			after := in.Stats(p)
			k := int(after.Retries - before.Retries)
			wantSend := now
			for a := 0; a < k; a++ {
				wantSend += in.Timeout(a)
			}
			delay := int64(after.Delayed-before.Delayed) * cfg.DelayCycles
			if calls != 1 || sentAt != wantSend || arr != hop(wantSend)+delay {
				t.Fatalf("message %d (%d retries, delay %d): transport called %d times, last at %d, arrival %d; want once at %d, arrival %d",
					i, k, delay, calls, sentAt, arr, wantSend, hop(wantSend)+delay)
			}
			if after.Drops-before.Drops != uint64(k) || after.RetryWait-before.RetryWait != uint64(wantSend-now) {
				t.Fatalf("message %d: counters moved %+v -> %+v for %d retries, %d cycles of timeouts", i, before, after, k, wantSend-now)
			}
		}
		if st := in.Stats(p); st.Retries < 100 || st.Delayed < 40 || in.Stats(1-p) != (PathStats{}) {
			t.Fatalf("400 messages at loss 0.3, delay 0.2: %+v; other path %+v", st, in.Stats(1-p))
		}
	})
}

// TestTransitTransientDelay: a delivered-but-delayed message arrives late
// by exactly DelayCycles and is counted; nothing is dropped.
func TestTransitTransientDelay(t *testing.T) {
	bothPaths(t, func(t *testing.T, p Path) {
		in, err := NewInjector(Config{Seed: 1, DelayRate: 1, DelayCycles: 7})
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 50; i++ {
			if arr, err := in.Transit(p, 100+i, 0, fixedHop); err != nil || arr != fixedHop(100+i)+7 {
				t.Fatalf("arrival %d, %v; want %d", arr, err, fixedHop(100+i)+7)
			}
		}
		if st := in.Stats(p); st != (PathStats{Delayed: 50}) {
			t.Fatalf("stats %+v, want 50 delayed and nothing else", st)
		}
	})
}

// TestTransitExhaustion: a certain-loss stream must return a structured
// *FaultError naming the sender and the injection cycle after MaxRetries
// retransmits, never loop forever, and must not invoke the transport (no
// bandwidth charged for an undelivered message).
func TestTransitExhaustion(t *testing.T) {
	bothPaths(t, func(t *testing.T, p Path) {
		cfg := lossy(p, 1.0)
		cfg.MaxRetries = 3
		in, err := NewInjector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = in.Transit(p, 100, 7, func(int64) int64 {
			t.Fatal("transport invoked for a message that was never delivered")
			return 0
		})
		var fe *FaultError
		if !errors.As(err, &fe) {
			t.Fatalf("want *FaultError, got %v", err)
		}
		if fe.Kind != KindMessageLoss || fe.PE != 7 || fe.Cycle != 100 ||
			!strings.Contains(fe.Detail, p.String()+" message lost after 4 attempts") {
			t.Fatalf("bad fault fields: %+v", fe)
		}
		if st := in.Stats(p); st.Drops != 4 || st.Retries != 3 {
			t.Fatalf("stats %+v, want 4 drops (MaxRetries+1) and 3 retries", st)
		}
	})
}

// TestMemTransitExhaustion: a certain-loss stream must return a structured
// *FaultError after MaxRetries attempts, never loop forever, and must not
// invoke the transport (no bandwidth charged for an undelivered message).
func TestMemTransitExhaustion(t *testing.T) {
	in, err := NewInjector(Config{Seed: 1, MemLossRate: 1.0, MaxRetries: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, err = in.Transit(StoreBuffer, 100, 7, func(int64) int64 {
		t.Fatal("transport invoked for a message that was never delivered")
		return 0
	})
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("want *FaultError, got %v", err)
	}
	if fe.Kind != KindMessageLoss || fe.PE != 7 || fe.Cycle != 100 {
		t.Fatalf("bad fault fields: %+v", fe)
	}
	if in.Stats(StoreBuffer).Retries != 3 {
		t.Fatalf("retries = %d, want 3", in.Stats(StoreBuffer).Retries)
	}
}

// TestMemTransitRecovery: with losses below the retry budget the message
// arrives, delayed by the backoff timeouts it paid.
func TestMemTransitRecovery(t *testing.T) {
	in, _ := NewInjector(Config{Seed: 1, MemLossRate: 0.3, AckTimeout: 10})
	sawRetry := false
	for i := 0; i < 200; i++ {
		arr, err := in.Transit(StoreBuffer, 1000, 0, func(send int64) int64 { return send + 5 })
		if err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
		if arr < 1005 {
			t.Fatalf("arrival %d before fault-free minimum", arr)
		}
		if arr > 1005 {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Fatal("30% loss never delayed a message across 200 draws")
	}
}

func TestParseSpec(t *testing.T) {
	c, err := ParseSpec("defect=0.05,drop=0.01,kill=12@5000,retries=4,timeout=32,delaycycles=8,memloss=0.02,delay=0.1")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{DefectRate: 0.05, DropRate: 0.01, DelayRate: 0.1, MemLossRate: 0.02,
		KillPE: 12, KillCycle: 5000, MaxRetries: 4, AckTimeout: 32, DelayCycles: 8}
	if c != want {
		t.Fatalf("parsed %+v, want %+v", c, want)
	}
	if c, err := ParseSpec("  "); err != nil || c.Enabled() {
		t.Fatalf("blank spec: %+v, %v", c, err)
	}
	for _, bad := range []string{
		"defect", "defect=x", "drop=1.5", "kill=3", "kill=a@b",
		"retries=x", "timeout=x", "delaycycles=x", "warp=0.5", "defect=1.0",
		"defect=NaN", "drop=NaN", "delay=NaN", "memloss=NaN",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q should not parse", bad)
		}
	}
}

func TestConfigStringRoundTrip(t *testing.T) {
	c := Config{DefectRate: 0.05, DropRate: 0.01, KillPE: 3, KillCycle: 77,
		MaxRetries: 2, AckTimeout: 128, DelayCycles: 5}
	back, err := ParseSpec(c.String())
	if err != nil {
		t.Fatal(err)
	}
	if back != c {
		t.Fatalf("String round trip: %+v -> %q -> %+v", c, c.String(), back)
	}
}

func TestFaultErrorFormat(t *testing.T) {
	e := &FaultError{Kind: KindWatchdog, PE: 4, Cycle: 123, Detail: "stuck"}
	if got := e.Error(); got != "fault[watchdog] pe=4 cycle=123: stuck" {
		t.Fatalf("format %q", got)
	}
	e2 := &FaultError{Kind: KindConfig, PE: -1}
	if strings.Contains(e2.Error(), "pe=") {
		t.Fatalf("pe=-1 should be omitted: %q", e2.Error())
	}
}

func TestValidate(t *testing.T) {
	for _, bad := range []Config{
		{DropRate: -0.1}, {DelayRate: 2}, {DefectRate: 1.0},
		{MaxRetries: -1}, {AckTimeout: -5}, {KillCycle: -1},
	} {
		if bad.Validate() == nil {
			t.Errorf("config %+v should not validate", bad)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config must validate: %v", err)
	}
	if (Config{}).Enabled() {
		t.Error("zero config must be disabled")
	}
	if !(Config{KillCycle: 5}).Enabled() {
		t.Error("kill schedule must enable injection")
	}
}
