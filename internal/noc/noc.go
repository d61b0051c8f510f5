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
	// lat is each route class's fixed latency: the bus latency of the three
	// intra-cluster classes, the cost of leaving the cluster for Mesh.
	lat [numClasses]int64
	// links is the per-(router, direction) FIFO state, a flat array of
	// 4 directed links per cluster: index cluster*4+dir. A flat array
	// instead of a map keeps the per-hop bandwidth charge allocation-free
	// and branch-cheap on the simulator's hot path.
	links []Port
	// use counts each directed link's messages and bandwidth stalls, by
	// [cluster][direction] (directions as in trace.Metrics.Links).
	use [][4]trace.LinkUse
	// msgs counts the messages carried, by route class; Stats sums them.
	msgs                  [numClasses]uint64
	meshHops, stallCycles uint64
	tr                    *trace.Tracer // nil = tracing disabled
}

// AttachTracer installs the run's timeline (nil disables it); every message
// carried is reported, and mesh traffic and link stalls land in the
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
	n.lat = [numClasses]int64{cfg.IntraPod, cfg.IntraDomain, cfg.IntraCluster, cfg.InterClusterBase}
	n.msgs = [numClasses]uint64{}
	n.meshHops, n.stallCycles = 0, 0
	n.tr = nil
	return nil
}

// Stats returns the counters.
func (n *Network) Stats() Stats {
	return Stats{
		Messages: n.msgs[ClassPod] + n.msgs[ClassDomain] + n.msgs[ClassCluster] + n.msgs[ClassMesh],
		PodLocal: n.msgs[ClassPod], DomainHops: n.msgs[ClassDomain], ClusterBus: n.msgs[ClassCluster],
		MeshMsgs: n.msgs[ClassMesh], MeshHops: n.meshHops, StallCycles: n.stallCycles,
	}
}

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

// Class is a message's regime in the paper's figure of communication types:
// intra-pod (A), intra-domain (B), intra-cluster (C), inter-cluster (D).
type Class uint8

const (
	ClassPod     Class = iota // the shared bypass between a pod's PEs
	ClassDomain               // the domain's bus
	ClassCluster              // the cluster's bus, between domains
	ClassMesh                 // out of the cluster and across the mesh
	numClasses
)

// Route is a message's path from one PE to another, resolved by
// Network.Route: its class and, for a mesh route, its two clusters. It is a
// pure function of the two locations and the geometry, so a caller whose
// endpoints stay put — a dataflow edge once both ends are placed — resolves
// it once and hands it to Carry for every message.
type Route struct {
	src, dst int32 // clusters; read by mesh routes only
	class    Class
}

// Class returns the route's class.
func (r Route) Class() Class { return r.class }

// Route classifies the path from src to dst. It is the one classification:
// Send, Carry's counters and Latency all read it.
func (n *Network) Route(src, dst Loc) Route {
	r := Route{src: int32(src.Cluster), dst: int32(dst.Cluster), class: ClassMesh}
	switch {
	case src.Cluster != dst.Cluster:
	case src.Domain != dst.Domain:
		r.class = ClassCluster
	case src.Pod != dst.Pod:
		r.class = ClassDomain
	default:
		r.class = ClassPod
	}
	return r
}

// Latency returns the operand latency from src to dst, ignoring contention.
func (n *Network) Latency(src, dst Loc) int64 {
	r := n.Route(src, dst)
	if r.class != ClassMesh {
		return n.lat[r.class]
	}
	return n.lat[ClassMesh] + n.cfg.LinkLatency*n.hops(src.Cluster, dst.Cluster)
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
func (n *Network) Send(src, dst Loc, now int64) int64 { return n.Carry(n.Route(src, dst), now) }

// Carry is Send over a route already resolved: the arrival cycle of a
// message injected at cycle now, booked in the statistics. A route inside
// one cluster is its class's fixed latency and one counter; a mesh route
// walks from its source cluster to its destination, X first, charging
// bandwidth on every link.
func (n *Network) Carry(r Route, now int64) int64 {
	if arr, ok := n.CarryLocal(r, now); ok {
		return arr
	}
	mesh := r.class == ClassMesh
	if n.tr != nil {
		n.tr.NetMsg(now, mesh)
	}
	n.msgs[r.class]++
	if !mesh {
		return now + n.lat[r.class]
	}
	t := now + n.lat[ClassMesh]
	cur, dst := int(r.src), int(r.dst)
	for cur != dst {
		next := n.nextDimOrder(cur, dst)
		dir := linkDir(cur, next, n.cfg.Width)
		granted := n.acquireLink(cur*4+dir, t)
		stall := uint64(granted - t)
		n.stallCycles += stall
		u := &n.use[cur][dir]
		u.Msgs++
		u.StallCycles += stall
		if n.tr != nil {
			n.tr.LinkHop(t, granted-t)
		}
		t = granted + n.cfg.LinkLatency
		n.meshHops++
		cur = next
	}
	return t
}

// CarryLocal is the part of Carry small enough to inline into a caller's
// send loop: a message over a route inside one cluster, on a network no
// tracer watches, is its class's fixed latency and one counter. For any
// other message it carries nothing and reports false; the caller hands
// that one to Carry.
func (n *Network) CarryLocal(r Route, now int64) (int64, bool) {
	if r.class == ClassMesh || n.tr != nil {
		return 0, false
	}
	n.msgs[r.class]++
	return now + n.lat[r.class], true
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
