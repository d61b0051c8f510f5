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
	// use counts each directed link's messages and bandwidth stalls, by
	// [cluster][direction] (directions as in trace.Metrics.Links).
	use   [][4]trace.LinkUse
	stats Stats
	tr    *trace.Tracer // nil = tracing disabled
}

// AttachTracer installs the run's timeline (nil disables it); every Send
// reports its message, and mesh traffic and link stalls land in the
// per-cycle series.
func (n *Network) AttachTracer(tr *trace.Tracer) { n.tr = tr }

// New builds a network.
func New(cfg Config) (*Network, error) {
	n := &Network{}
	if err := n.Reset(cfg); err != nil {
		return nil, err
	}
	return n, nil
}

// Reset returns the network to its post-New state under cfg, reusing the
// link arrays when the mesh geometry is unchanged. The tracer attachment is
// cleared — a reused network belongs to a new run, which must attach its
// own.
func (n *Network) Reset(cfg Config) error {
	if cfg.Width < 1 || cfg.Height < 1 {
		return fmt.Errorf("noc: bad mesh %dx%d", cfg.Width, cfg.Height)
	}
	nc := cfg.Width * cfg.Height
	if nc <= cap(n.use) {
		n.links, n.use = n.links[:nc*4], n.use[:nc]
		clear(n.links)
		clear(n.use)
	} else {
		n.links, n.use = make([]Port, nc*4), make([][4]trace.LinkUse, nc)
	}
	n.cfg = cfg
	n.stats = Stats{}
	n.tr = nil
	return nil
}

// Stats returns the counters.
func (n *Network) Stats() Stats { return n.stats }

// LinkUse returns each directed mesh link's message and stall counts, by
// [cluster][direction]. The slice is the network's own: copy it to keep it
// past the next Reset.
func (n *Network) LinkUse() [][4]trace.LinkUse { return n.use }

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
	mesh := src.Cluster != dst.Cluster
	if n.tr != nil {
		n.tr.NetMsg(now, mesh)
	}
	switch {
	case src.Cluster == dst.Cluster && src.Domain == dst.Domain && src.Pod == dst.Pod:
		n.stats.PodLocal++
		return now + n.cfg.IntraPod
	case src.Cluster == dst.Cluster && src.Domain == dst.Domain:
		n.stats.DomainHops++
		return now + n.cfg.IntraDomain
	case !mesh:
		n.stats.ClusterBus++
		return now + n.cfg.IntraCluster
	}
	n.stats.MeshMsgs++
	t := now + n.cfg.InterClusterBase
	cur := src.Cluster
	for cur != dst.Cluster {
		next := n.nextDimOrder(cur, dst.Cluster)
		dir := linkDir(cur, next, n.cfg.Width)
		granted := n.acquireLink(cur*4+dir, t)
		stall := uint64(granted - t)
		n.stats.StallCycles += stall
		u := &n.use[cur][dir]
		u.Msgs++
		u.StallCycles += stall
		if n.tr != nil {
			n.tr.LinkHop(t, granted-t)
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

// acquireLink charges one message of bandwidth on directed link number
// link (cluster*4+direction) requested at cycle t, returning the cycle the
// message actually traverses (never before t).
func (n *Network) acquireLink(link int, t int64) int64 {
	if n.cfg.LinkBandwidth <= 0 {
		return t
	}
	return n.links[link].Grant(t, n.cfg.LinkBandwidth)
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
