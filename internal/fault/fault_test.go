package fault

import (
	"errors"
	"strings"
	"testing"
)

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
		d1, l1 := a.TokenFault()
		d2, l2 := b.TokenFault()
		if d1 != d2 || l1 != l2 {
			t.Fatalf("token draw %d diverged: (%v,%d) vs (%v,%d)", i, d1, l1, d2, l2)
		}
		d1, l1 = a.MemFault()
		d2, l2 = b.MemFault()
		if d1 != d2 || l1 != l2 {
			t.Fatalf("mem draw %d diverged", i)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
}

// TestStreamIndependence: enabling the memory-loss stream must not change
// which operand messages drop — separate streams per fault class.
func TestStreamIndependence(t *testing.T) {
	base, _ := NewInjector(Config{Seed: 5, DropRate: 0.1})
	both, _ := NewInjector(Config{Seed: 5, DropRate: 0.1, MemLossRate: 0.5})
	for i := 0; i < 10_000; i++ {
		d1, _ := base.TokenFault()
		both.MemFault() // interleave mem draws; token stream must not notice
		d2, _ := both.TokenFault()
		if d1 != d2 {
			t.Fatalf("token drop %d changed when mem faults were enabled", i)
		}
	}
}

func TestRatesRoughlyHonored(t *testing.T) {
	in, _ := NewInjector(Config{Seed: 1, DropRate: 0.25})
	drops := 0
	const n = 100_000
	for i := 0; i < n; i++ {
		if d, _ := in.TokenFault(); d {
			drops++
		}
	}
	got := float64(drops) / n
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

// TestMemTransitExhaustion: a certain-loss stream must return a structured
// *FaultError after MaxRetries attempts, never loop forever, and must not
// invoke the transport (no bandwidth charged for an undelivered message).
func TestMemTransitExhaustion(t *testing.T) {
	in, err := NewInjector(Config{Seed: 1, MemLossRate: 1.0, MaxRetries: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, err = in.MemTransit(100, 7, func(int64) int64 {
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
	if in.Stats().MemRetries != 3 {
		t.Fatalf("retries = %d, want 3", in.Stats().MemRetries)
	}
}

// TestMemTransitRecovery: with losses below the retry budget the message
// arrives, delayed by the backoff timeouts it paid.
func TestMemTransitRecovery(t *testing.T) {
	in, _ := NewInjector(Config{Seed: 1, MemLossRate: 0.3, AckTimeout: 10})
	sawRetry := false
	for i := 0; i < 200; i++ {
		arr, err := in.MemTransit(1000, 0, func(send int64) int64 { return send + 5 })
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
