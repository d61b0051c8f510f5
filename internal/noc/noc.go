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
}

// Port is a FIFO bandwidth queue — a mesh link here, a store buffer's issue
// port in the simulator: the latest cycle that granted a slot and how many
// that cycle has carried.
type Port struct {
	cycle int64
	used  int64
}

// Grant takes one of the port's width slots per cycle for a request made at
// cycle t and returns the cycle granted. A request never overtakes earlier
// grants, so one behind a backlog is bumped to the first cycle with a spare
// slot, in O(1).
func (p *Port) Grant(t, width int64) int64 {
	switch {
	case t > p.cycle:
		p.cycle = t
		p.used = 1
	case p.used < width:
		p.used++
	default:
		p.cycle++
		p.used = 1
	}
	return p.cycle
}

// Network computes operand delivery times and accounts link contention.
type Network struct {
	cfg Config
	// links is the per-(router, direction) FIFO state, a flat array of
	// 4 directed links per cluster: index cluster*4+dir. A flat array
	// instead of a map keeps the per-hop bandwidth charge allocation-free
	// and branch-cheap on the simulator's hot path.
	links []Port
	stats Stats
	tr    *trace.Tracer // nil = tracing disabled
}

// AttachTracer installs the structured tracing sink (nil disables it);
// message-level and link-level counters are recorded per Send.
func (n *Network) AttachTracer(tr *trace.Tracer) { n.tr = tr }

// New builds a network.
func New(cfg Config) (*Network, error) {
	if cfg.Width < 1 || cfg.Height < 1 {
		return nil, fmt.Errorf("noc: bad mesh %dx%d", cfg.Width, cfg.Height)
	}
	return &Network{cfg: cfg, links: make([]Port, cfg.Width*cfg.Height*4)}, nil
}

// Reset returns the network to its post-New state under cfg, reusing the
// link array when the mesh geometry is unchanged. The tracer attachment is
// cleared — a reused network belongs to a new run, which must attach its
// own.
func (n *Network) Reset(cfg Config) error {
	if cfg.Width < 1 || cfg.Height < 1 {
		return fmt.Errorf("noc: bad mesh %dx%d", cfg.Width, cfg.Height)
	}
	need := cfg.Width * cfg.Height * 4
	if need <= cap(n.links) {
		n.links = n.links[:need]
		clear(n.links)
	} else {
		n.links = make([]Port, need)
	}
	n.cfg = cfg
	n.stats = Stats{}
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
		if n.tr != nil {
			n.tr.NetMsg(now, trace.LevelPod)
		}
		return now + n.cfg.IntraPod
	case src.Cluster == dst.Cluster && src.Domain == dst.Domain:
		n.stats.DomainHops++
		if n.tr != nil {
			n.tr.NetMsg(now, trace.LevelDomain)
		}
		return now + n.cfg.IntraDomain
	case src.Cluster == dst.Cluster:
		n.stats.ClusterBus++
		if n.tr != nil {
			n.tr.NetMsg(now, trace.LevelCluster)
		}
		return now + n.cfg.IntraCluster
	}
	n.stats.MeshMsgs++
	if n.tr != nil {
		n.tr.NetMsg(now, trace.LevelMesh)
	}
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
// traverses (never before t).
func (n *Network) acquireLink(cur, next int, t int64) int64 {
	if n.cfg.LinkBandwidth <= 0 {
		return t
	}
	granted := n.links[cur*4+linkDir(cur, next, n.cfg.Width)].Grant(t, n.cfg.LinkBandwidth)
	n.stats.StallCycles += uint64(granted - t)
	return granted
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
