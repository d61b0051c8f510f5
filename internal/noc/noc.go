// Package noc models the WaveScalar processor's inter-cluster interconnect:
// a 2-D mesh of switches with dimension-order (X then Y) routing, per-hop
// latency, and per-link bandwidth. Within a cluster the operand network is
// hierarchical (pod / domain / cluster buses) with the published fixed
// latencies; those are modeled here too so the WaveCache simulator has a
// single place to ask "how long until this operand arrives?".
package noc

import (
	"fmt"

	"wavescalar/internal/trace"
)

// Config holds the operand-network latencies from the published WaveScalar
// processor table.
type Config struct {
	// Mesh geometry in clusters.
	Width, Height int

	// Operand latencies (cycles).
	IntraPod     int64 // shared bypass: same pod
	IntraDomain  int64 // same domain
	IntraCluster int64 // same cluster, different domain
	// InterClusterBase is the fixed cost to leave a cluster; each mesh hop
	// adds LinkLatency.
	InterClusterBase int64
	LinkLatency      int64

	// LinkBandwidth is the number of messages a mesh link accepts per
	// cycle (the 4-port bidirectional switches of the paper). Zero means
	// unlimited.
	LinkBandwidth int64
}

// DefaultConfig returns the published parameters for a w x h cluster grid:
// pod 1, domain 4, cluster 7, inter-cluster 7 + hops.
func DefaultConfig(w, h int) Config {
	return Config{
		Width: w, Height: h,
		IntraPod:         1,
		IntraDomain:      4,
		IntraCluster:     7,
		InterClusterBase: 7,
		LinkLatency:      1,
		LinkBandwidth:    4,
	}
}

// Stats counts network activity.
type Stats struct {
	Messages   uint64
	PodLocal   uint64
	DomainHops uint64
	ClusterBus uint64
	MeshMsgs   uint64
	MeshHops   uint64
	// StallCycles accumulates cycles messages waited for link bandwidth.
	StallCycles uint64

	// Transient-fault recovery (all zero without an attached FaultModel).
	// Drops counts lost message attempts, Retries successful retransmits,
	// Delayed transiently delayed deliveries; RetryWaitCycles accumulates
	// sender ack-timeout cycles paid before retransmits.
	Drops           uint64
	Retries         uint64
	Delayed         uint64
	RetryWaitCycles uint64
}

// FaultModel injects transient faults into message delivery and supplies
// the ack/retransmit protocol parameters. internal/fault.Injector implements
// it; the interface lives here so noc stays free of the fault package.
type FaultModel interface {
	// TokenFault draws the outcome of one message attempt: dropped, and
	// any extra transient delay on a delivered message.
	TokenFault() (drop bool, delay int64)
	// MaxRetries bounds retransmit attempts per message.
	MaxRetries() int
	// Timeout is the sender's ack timeout before retransmit attempt
	// number attempt (0-based).
	Timeout(attempt int) int64
}

// linkState is a FIFO link queue: the latest cycle that granted bandwidth
// and how many messages it carried.
type linkState struct {
	cycle int64
	used  int64
}

// Network computes operand delivery times and accounts link contention.
type Network struct {
	cfg Config
	// links is the per-(router, direction) FIFO state, a flat array of
	// 4 directed links per cluster: index cluster*4+dir. A flat array
	// instead of a map keeps the per-hop bandwidth charge allocation-free
	// and branch-cheap on the simulator's hot path.
	links  []linkState
	stats  Stats
	faults FaultModel    // nil = perfect network
	tr     *trace.Tracer // nil = tracing disabled
}

// AttachFaults installs a transient-fault model consulted by SendReliable.
// Pass nil to restore the perfect network.
func (n *Network) AttachFaults(fm FaultModel) { n.faults = fm }

// AttachTracer installs the structured tracing sink (nil disables it);
// message-level and link-level counters are recorded per Send.
func (n *Network) AttachTracer(tr *trace.Tracer) { n.tr = tr }

// New builds a network.
func New(cfg Config) (*Network, error) {
	if cfg.Width < 1 || cfg.Height < 1 {
		return nil, fmt.Errorf("noc: bad mesh %dx%d", cfg.Width, cfg.Height)
	}
	return &Network{cfg: cfg, links: make([]linkState, cfg.Width*cfg.Height*4)}, nil
}

// Reset returns the network to its post-New state under cfg, reusing the
// link array when the mesh geometry is unchanged. The fault model and
// tracer attachments are cleared — a reused network belongs to a new run,
// which must attach its own.
func (n *Network) Reset(cfg Config) error {
	if cfg.Width < 1 || cfg.Height < 1 {
		return fmt.Errorf("noc: bad mesh %dx%d", cfg.Width, cfg.Height)
	}
	need := cfg.Width * cfg.Height * 4
	if need <= cap(n.links) {
		n.links = n.links[:need]
		clear(n.links)
	} else {
		n.links = make([]linkState, need)
	}
	n.cfg = cfg
	n.stats = Stats{}
	n.faults = nil
	n.tr = nil
	return nil
}

// Stats returns the counters.
func (n *Network) Stats() Stats { return n.stats }

// Cluster coordinates.
func (n *Network) clusterXY(c int) (int, int) { return c % n.cfg.Width, c / n.cfg.Width }

// NumClusters returns the cluster count.
func (n *Network) NumClusters() int { return n.cfg.Width * n.cfg.Height }

// Loc identifies a processing element's position in the hierarchy.
type Loc struct {
	Cluster int
	Domain  int
	Pod     int
}

// Latency returns the operand latency from src to dst, ignoring contention.
// The four regimes match the paper's Figure of communication types:
// intra-pod (A), intra-domain (B), intra-cluster (C), inter-cluster (D).
func (n *Network) Latency(src, dst Loc) int64 {
	switch {
	case src == dst:
		return n.cfg.IntraPod
	case src.Cluster == dst.Cluster && src.Domain == dst.Domain:
		if src.Pod == dst.Pod {
			return n.cfg.IntraPod
		}
		return n.cfg.IntraDomain
	case src.Cluster == dst.Cluster:
		return n.cfg.IntraCluster
	default:
		return n.cfg.InterClusterBase + n.cfg.LinkLatency*n.hops(src.Cluster, dst.Cluster)
	}
}

// hops counts mesh links on the dimension-order route.
func (n *Network) hops(a, b int) int64 {
	ax, ay := n.clusterXY(a)
	bx, by := n.clusterXY(b)
	return int64(abs(ax-bx) + abs(ay-by))
}

// Send computes the arrival cycle of a message injected at cycle now,
// charging bandwidth on every mesh link along the route. It also updates
// the statistics.
func (n *Network) Send(src, dst Loc, now int64) int64 {
	n.stats.Messages++
	switch {
	case src.Cluster == dst.Cluster && src.Domain == dst.Domain && src.Pod == dst.Pod:
		n.stats.PodLocal++
		n.tr.NetMsg(now, trace.LevelPod)
		return now + n.cfg.IntraPod
	case src.Cluster == dst.Cluster && src.Domain == dst.Domain:
		n.stats.DomainHops++
		n.tr.NetMsg(now, trace.LevelDomain)
		return now + n.cfg.IntraDomain
	case src.Cluster == dst.Cluster:
		n.stats.ClusterBus++
		n.tr.NetMsg(now, trace.LevelCluster)
		return now + n.cfg.IntraCluster
	}
	n.stats.MeshMsgs++
	n.tr.NetMsg(now, trace.LevelMesh)
	t := now + n.cfg.InterClusterBase
	cur := src.Cluster
	for cur != dst.Cluster {
		next := n.nextDimOrder(cur, dst.Cluster)
		granted := n.acquireLink(cur, next, t)
		if n.tr != nil {
			n.tr.LinkHop(t, cur, linkDir(cur, next, n.cfg.Width), granted-t)
		}
		t = granted + n.cfg.LinkLatency
		n.stats.MeshHops++
		cur = next
	}
	return t
}

// SendReliable is Send under the attached fault model: each attempt may be
// dropped (the sender times out waiting for the acknowledgement and
// retransmits with exponential backoff) or transiently delayed. Without an
// attached model it is exactly Send. When the retry budget is exhausted it
// returns an error — the caller surfaces it as a structured fault — and the
// message is counted dropped. Link bandwidth is charged only for the
// delivered attempt: a dropped message is modeled as corrupted in transit,
// and its bandwidth footprint is folded into the timeout it costs.
func (n *Network) SendReliable(src, dst Loc, now int64) (int64, error) {
	if n.faults == nil {
		return n.Send(src, dst, now), nil
	}
	send := now
	for attempt := 0; ; attempt++ {
		drop, delay := n.faults.TokenFault()
		if !drop {
			if delay > 0 {
				n.stats.Delayed++
			}
			return n.Send(src, dst, send) + delay, nil
		}
		n.stats.Drops++
		n.tr.Drop(send, -1)
		if attempt >= n.faults.MaxRetries() {
			return 0, fmt.Errorf("noc: message %v -> %v injected at cycle %d lost after %d attempts",
				src, dst, now, attempt+1)
		}
		wait := n.faults.Timeout(attempt)
		n.stats.Retries++
		n.stats.RetryWaitCycles += uint64(wait)
		n.tr.Retry(send, -1, wait)
		send += wait
	}
}

// nextDimOrder steps one cluster toward dst, X first.
func (n *Network) nextDimOrder(cur, dst int) int {
	cx, cy := n.clusterXY(cur)
	dx, _ := n.clusterXY(dst)
	switch {
	case cx < dx:
		return cur + 1
	case cx > dx:
		return cur - 1
	case cy < dst/n.cfg.Width:
		return cur + n.cfg.Width
	default:
		return cur - n.cfg.Width
	}
}

// acquireLink charges one message of bandwidth on the directed link
// cur->next requested at cycle t, returning the cycle the message actually
// traverses. The link is a FIFO queue: a message never overtakes earlier
// grants, so a request behind a backlog is bumped to the first cycle with
// spare bandwidth, in O(1).
func (n *Network) acquireLink(cur, next int, t int64) int64 {
	if n.cfg.LinkBandwidth <= 0 {
		return t
	}
	ls := &n.links[cur*4+linkDir(cur, next, n.cfg.Width)]
	switch {
	case t > ls.cycle:
		ls.cycle = t
		ls.used = 1
	case ls.used < n.cfg.LinkBandwidth:
		ls.used++
	default:
		ls.cycle++
		ls.used = 1
	}
	if ls.cycle > t {
		n.stats.StallCycles += uint64(ls.cycle - t)
	}
	return ls.cycle
}

func linkDir(cur, next, width int) int {
	switch next - cur {
	case 1:
		return 0
	case -1:
		return 1
	case width:
		return 2
	default:
		return 3
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
