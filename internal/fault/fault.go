// Package fault is the deterministic fault-injection subsystem for the
// WaveCache simulator. The WaveScalar paper argues that a tiled, decentralized
// dataflow machine tolerates manufacturing defects and transient faults: a
// dead processing element is simply mapped around by instruction placement,
// and lost messages are recovered by the usual distributed-systems machinery
// (acknowledge, time out, retransmit). This package supplies the fault model
// that lets the simulator test that claim:
//
//   - hard PE defects fixed at configuration time (DefectMap), which the
//     placement policies treat as non-placeable;
//   - a mid-run PE death (KillPE/KillCycle), recovered by re-placement:
//     the dead PE's resident instructions migrate to live PEs and in-flight
//     tokens are re-delivered to the new homes;
//   - transient operand-network message drops and delays, and store-buffer
//     message loss, recovered by an ack/retransmit protocol with exponential
//     backoff and bounded retries.
//
// Every fault decision is drawn from a seeded deterministic generator
// (separate streams per fault class so enabling one class never perturbs
// another), so a faulty run is reproducible bit-for-bit from (seed, config).
// Unrecoverable situations surface as a structured *FaultError — never a
// panic, never a hang.
package fault

import (
	"fmt"
	"strconv"
	"strings"

	"wavescalar/internal/trace"
)

// Config declares the fault scenario for one simulation run. The zero value
// disables all injection (a perfect machine).
type Config struct {
	// Seed drives every fault decision; identical (Seed, Config) pairs
	// reproduce identical faulty runs bit-for-bit.
	Seed uint64

	// DefectRate is the fraction of PEs dead at configuration time
	// (manufacturing defects). Placement must route around them.
	DefectRate float64

	// DropRate is the probability an operand-network message is lost in
	// transit and must be retransmitted.
	DropRate float64
	// DelayRate is the probability a message is transiently delayed (soft
	// error on a link retried at the flit level) by DelayCycles.
	DelayRate float64
	// DelayCycles is the extra latency of a delayed message (default 16).
	DelayCycles int64
	// MemLossRate is the probability a store-buffer message (request or
	// load reply) is lost and must be retransmitted.
	MemLossRate float64

	// KillPE dies at cycle KillCycle (0 = no mid-run kill; KillPE is
	// ignored unless KillCycle > 0). Its resident instructions migrate.
	KillPE    int
	KillCycle int64

	// MaxRetries bounds retransmit attempts per message (default 8);
	// exhaustion returns a *FaultError instead of retrying forever.
	MaxRetries int
	// AckTimeout is the base sender timeout before the first retransmit
	// (default 64 cycles); it doubles on each further attempt.
	AckTimeout int64
}

// Enabled reports whether any fault injection is configured.
func (c Config) Enabled() bool {
	return c.DefectRate > 0 || c.DropRate > 0 || c.DelayRate > 0 ||
		c.MemLossRate > 0 || c.KillCycle > 0
}

// Validate checks rates and recovery parameters.
func (c Config) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"defect", c.DefectRate}, {"drop", c.DropRate},
		{"delay", c.DelayRate}, {"memloss", c.MemLossRate},
	} {
		if !(r.v >= 0 && r.v <= 1) { // NaN fails both comparisons
			return fmt.Errorf("fault: %s rate %g outside [0,1]", r.name, r.v)
		}
	}
	if c.DefectRate >= 1 {
		return fmt.Errorf("fault: defect rate 1.0 leaves no usable PEs")
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("fault: negative MaxRetries %d", c.MaxRetries)
	}
	if c.DelayCycles < 0 || c.AckTimeout < 0 || c.KillCycle < 0 {
		return fmt.Errorf("fault: negative cycle parameter")
	}
	return nil
}

// withDefaults fills the recovery knobs left zero.
func (c Config) withDefaults() Config {
	if c.MaxRetries == 0 {
		c.MaxRetries = 8
	}
	if c.AckTimeout == 0 {
		c.AckTimeout = 64
	}
	if c.DelayCycles == 0 {
		c.DelayCycles = 16
	}
	return c
}

// String renders the config in ParseSpec form: every key whose value is not
// the default, in a fixed order, so two configs that inject the same faults
// render alike (empty for the zero config; Seed is not part of a spec).
func (c Config) String() string {
	var parts []string
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	add("defect", c.DefectRate)
	add("drop", c.DropRate)
	add("delay", c.DelayRate)
	add("memloss", c.MemLossRate)
	if c.KillCycle > 0 {
		parts = append(parts, fmt.Sprintf("kill=%d@%d", c.KillPE, c.KillCycle))
	}
	c, def := c.withDefaults(), Config{}.withDefaults()
	if c.MaxRetries != def.MaxRetries {
		parts = append(parts, fmt.Sprintf("retries=%d", c.MaxRetries))
	}
	if c.AckTimeout != def.AckTimeout {
		parts = append(parts, fmt.Sprintf("timeout=%d", c.AckTimeout))
	}
	if c.DelayCycles != def.DelayCycles {
		parts = append(parts, fmt.Sprintf("delaycycles=%d", c.DelayCycles))
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses the CLI fault specification: comma-separated key=value
// pairs. Keys: defect, drop, delay, memloss (rates in [0,1]);
// kill=PE@CYCLE; retries=N; timeout=CYCLES; delaycycles=CYCLES.
// The empty string yields the disabled zero Config.
func ParseSpec(spec string) (Config, error) {
	var c Config
	if strings.TrimSpace(spec) == "" {
		return c, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		eq := strings.IndexByte(kv, '=')
		if eq < 0 {
			return c, fmt.Errorf("fault: bad spec entry %q (want key=value)", kv)
		}
		key, val := kv[:eq], kv[eq+1:]
		switch key {
		case "defect", "drop", "delay", "memloss":
			r, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return c, fmt.Errorf("fault: bad %s rate %q: %v", key, val, err)
			}
			switch key {
			case "defect":
				c.DefectRate = r
			case "drop":
				c.DropRate = r
			case "delay":
				c.DelayRate = r
			case "memloss":
				c.MemLossRate = r
			}
		case "kill":
			at := strings.IndexByte(val, '@')
			if at < 0 {
				return c, fmt.Errorf("fault: kill wants PE@CYCLE, got %q", val)
			}
			pe, err1 := strconv.Atoi(val[:at])
			cyc, err2 := strconv.ParseInt(val[at+1:], 10, 64)
			if err1 != nil || err2 != nil {
				return c, fmt.Errorf("fault: bad kill spec %q", val)
			}
			c.KillPE, c.KillCycle = pe, cyc
		case "retries":
			n, err := strconv.Atoi(val)
			if err != nil {
				return c, fmt.Errorf("fault: bad retries %q: %v", val, err)
			}
			c.MaxRetries = n
		case "timeout":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return c, fmt.Errorf("fault: bad timeout %q: %v", val, err)
			}
			c.AckTimeout = n
		case "delaycycles":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return c, fmt.Errorf("fault: bad delaycycles %q: %v", val, err)
			}
			c.DelayCycles = n
		default:
			return c, fmt.Errorf("fault: unknown spec key %q", key)
		}
	}
	if err := c.Validate(); err != nil {
		return c, err
	}
	return c, nil
}

// Kind classifies a FaultError.
type Kind uint8

const (
	// KindMessageLoss: a message exhausted its retransmit budget (the
	// fault was unrecoverable within MaxRetries).
	KindMessageLoss Kind = iota
	// KindPlacement: a PE death could not be recovered by re-placement
	// (no usable PEs remain, or the policy cannot migrate).
	KindPlacement
	// KindWatchdog: the simulation watchdog fired — no event progress
	// (dataflow deadlock, livelock, or a lost-token hang) or the
	// MaxCycles bound was exceeded.
	KindWatchdog
	// KindConfig: the fault configuration itself is unusable.
	KindConfig
	// KindCancelled: the caller cancelled the run (deadline expiry, client
	// disconnect, server drain) via wavecache.Config.Cancel. Not a machine
	// fault — the simulation was healthy when it was asked to stop.
	KindCancelled
)

func (k Kind) String() string {
	switch k {
	case KindMessageLoss:
		return "message-loss"
	case KindPlacement:
		return "placement"
	case KindWatchdog:
		return "watchdog"
	case KindConfig:
		return "config"
	case KindCancelled:
		return "cancelled"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// FaultError is the structured failure a simulator returns when a fault is
// unrecoverable. It is diagnosable (kind, location, cycle, diagnostic
// detail) and is never accompanied by a hang or a panic.
type FaultError struct {
	Kind   Kind
	PE     int   // affected PE (-1 when not PE-specific)
	Cycle  int64 // simulation time of the failure
	Detail string
}

func (e *FaultError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fault[%s]", e.Kind)
	if e.PE >= 0 {
		fmt.Fprintf(&b, " pe=%d", e.PE)
	}
	fmt.Fprintf(&b, " cycle=%d", e.Cycle)
	if e.Detail != "" {
		b.WriteString(": ")
		b.WriteString(e.Detail)
	}
	return b.String()
}

// Path names one of the machine's message paths. Each has its own fault
// stream, so enabling loss on one never changes which messages the other
// loses, and its own recovery counters.
type Path uint8

const (
	// Operand is a PE-to-PE operand-network message; DropRate is its loss
	// probability.
	Operand Path = iota
	// StoreBuffer is a memory request to, or a load reply from, a store
	// buffer; MemLossRate is its loss probability.
	StoreBuffer
	numPaths
)

func (p Path) String() string {
	if p == Operand {
		return "operand"
	}
	return "store-buffer"
}

// PathStats counts one message path's transient faults and their recovery.
type PathStats struct {
	Drops     uint64 // message attempts lost in transit
	Retries   uint64 // retransmits that followed a drop
	RetryWait uint64 // cycles senders spent in ack timeouts before retransmits
	Delayed   uint64 // deliveries transiently delayed by DelayCycles
}

// Stats counts a run's fault activity.
type Stats struct {
	// DefectivePEs is the size of the configuration-time defect map.
	DefectivePEs int
	// PEKills counts mid-run PE deaths; MigratedInstrs counts instruction
	// homes evicted from killed PEs and re-placed on live ones.
	PEKills        uint64
	MigratedInstrs uint64
	// The two message paths' recovery counters (Injector.Transit).
	Operand, StoreBuffer PathStats
}

// splitmix64 advances one PRNG stream; the standard 64-bit mixer, chosen for
// reproducibility (no dependence on math/rand internals across Go versions).
func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// rand01 maps a draw to [0,1).
func rand01(state *uint64) float64 {
	return float64(splitmix64(state)>>11) / (1 << 53)
}

// Injector draws fault decisions for one simulation run and runs the
// recovery protocol over them (Transit). Not safe for concurrent use:
// construct one per simulation, like a placement policy.
type Injector struct {
	cfg   Config
	paths [numPaths]pathState
	tr    *trace.Tracer // nil = tracing disabled
}

// pathState is one message path's PRNG stream, per-attempt loss
// probability, and counters.
type pathState struct {
	rng   uint64
	loss  float64
	stats PathStats
}

// AttachTracer installs the structured tracing sink (nil disables it);
// drops and retries on either path are recorded as discrete events.
func (in *Injector) AttachTracer(tr *trace.Tracer) { in.tr = tr }

// NewInjector builds the injector for a validated config.
func NewInjector(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	in := &Injector{cfg: cfg}
	in.paths[Operand] = pathState{rng: cfg.Seed ^ 0x746F6B656E73, loss: cfg.DropRate}        // "tokens"
	in.paths[StoreBuffer] = pathState{rng: cfg.Seed ^ 0x6D656D6F7279, loss: cfg.MemLossRate} // "memory"
	return in, nil
}

// Stats returns one path's recovery counters.
func (in *Injector) Stats(p Path) PathStats { return in.paths[p].stats }

// DefectMap returns the configuration-time hard-defect map for n PEs,
// derived only from the seed and defect rate: the same map whether computed
// by the simulator or by the caller constructing a placement policy. At
// least one PE is always left usable.
func DefectMap(cfg Config, n int) []bool {
	if cfg.DefectRate <= 0 || n <= 0 {
		return nil
	}
	state := cfg.Seed ^ 0x646566656374 // "defect"
	dead := make([]bool, n)
	alive := n
	for i := range dead {
		if rand01(&state) < cfg.DefectRate && alive > 1 {
			dead[i] = true
			alive--
		}
	}
	return dead
}

// CountDefects reports how many entries of a defect map are dead.
func CountDefects(m []bool) int {
	n := 0
	for _, d := range m {
		if d {
			n++
		}
	}
	return n
}

// Timeout is the sender's ack timeout before retransmit attempt number
// attempt (0-based): exponential backoff from AckTimeout, capped at 2^10x.
func (in *Injector) Timeout(attempt int) int64 {
	if attempt > 10 {
		attempt = 10
	}
	return in.cfg.AckTimeout << attempt
}

// Transit computes the delivery time of one message PE pe injects on path
// at cycle now: the sender-side ack/retransmit protocol every message path
// shares. Each attempt may be lost — the sender times out waiting for the
// acknowledgement and retransmits, with exponential backoff — or delivered
// with a transient delay. transport maps a send cycle to the fault-free
// arrival cycle (and charges any bandwidth); it is invoked exactly once, at
// the send time of the delivered attempt: a dropped message is modeled as
// corrupted in transit, its bandwidth footprint folded into the timeout it
// costs. When the retry budget is exhausted Transit returns a *FaultError.
func (in *Injector) Transit(path Path, now int64, pe int, transport func(send int64) int64) (int64, error) {
	ps := &in.paths[path]
	send := now
	for attempt := 0; ; attempt++ {
		if ps.loss == 0 || rand01(&ps.rng) >= ps.loss {
			arr := transport(send)
			if in.cfg.DelayRate > 0 && rand01(&ps.rng) < in.cfg.DelayRate {
				ps.stats.Delayed++
				arr += in.cfg.DelayCycles
			}
			return arr, nil
		}
		ps.stats.Drops++
		in.tr.Drop(send, pe)
		if attempt >= in.cfg.MaxRetries {
			return 0, &FaultError{
				Kind: KindMessageLoss, PE: pe, Cycle: now,
				Detail: fmt.Sprintf("%s message lost after %d attempts", path, attempt+1),
			}
		}
		wait := in.Timeout(attempt)
		ps.stats.Retries++
		ps.stats.RetryWait += uint64(wait)
		in.tr.Retry(send, pe, wait)
		send += wait
	}
}
