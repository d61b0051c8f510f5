package noc_test

import (
	"fmt"
	"testing"

	"wavescalar/internal/noc"
	"wavescalar/internal/placement"
)

// TestRouteMatchesSend: a route resolved once and carried later is the
// message Send would have sent. For every PE pair of the 1x1, 2x2, 4x4 and
// 8x8 machines, under E5's operand-latency scales, each source PE's routes
// are resolved first and then carried on one network (by Carry, or by
// CarryLocal where it accepts), while Send takes the same messages on
// another, both fresh at the start: every arrival, the Stats and the link
// use must agree. Each route's class must be the one the
// paper's figure gives the pair, and a route inside a cluster must arrive
// after exactly its bus latency — at x0 that latency is 0, so a cached "0
// cycles" may never be read as a mesh route, nor a mesh route as a local one.
func TestRouteMatchesSend(t *testing.T) {
	for _, grid := range []int{1, 2, 4, 8} {
		for _, scale := range []int64{0, 1, 2, 4} {
			t.Run(fmt.Sprintf("%dx%d/x%d", grid, grid, scale), func(t *testing.T) {
				if testing.Short() && grid == 8 {
					t.Skip("8x8 has four million PE pairs")
				}
				cfg := noc.DefaultConfig(grid, grid)
				cfg.IntraPod *= scale
				cfg.IntraDomain *= scale
				cfg.IntraCluster *= scale
				cfg.InterClusterBase *= scale
				cfg.LinkLatency *= scale
				busLat := [3]int64{noc.ClassPod: cfg.IntraPod, noc.ClassDomain: cfg.IntraDomain, noc.ClassCluster: cfg.IntraCluster}
				carried, sent := mustNew(t, cfg), mustNew(t, cfg)
				m := placement.DefaultMachine(grid, grid)
				locs := make([]noc.Loc, m.NumPEs())
				for pe := range locs {
					locs[pe] = m.Loc(pe)
				}
				routes := make([]noc.Route, len(locs))
				var classes [4]uint64
				now := int64(0)
				for a, src := range locs {
					for b, dst := range locs {
						routes[b] = carried.Route(src, dst)
						if c, want := routes[b].Class(), wantClass(src, dst); c != want {
							t.Fatalf("PE %d -> %d (%+v -> %+v): class %d, want %d", a, b, src, dst, c, want)
						}
					}
					for b, dst := range locs {
						r := routes[b]
						// Every other message goes the way the simulator's send
						// loop takes it: CarryLocal, then Carry for what it refuses.
						var got int64
						local := false
						if b%2 == 0 {
							got, local = carried.CarryLocal(r, now)
							if local != (r.Class() != noc.ClassMesh) {
								t.Fatalf("PE %d -> %d: CarryLocal carried=%v a class-%d route", a, b, local, r.Class())
							}
						}
						if !local {
							got = carried.Carry(r, now)
						}
						ref := sent.Send(src, dst, now)
						if got != ref {
							t.Fatalf("PE %d -> %d at %d: carried route arrives at %d, Send at %d", a, b, now, got, ref)
						}
						if c := r.Class(); c != noc.ClassMesh && got != now+busLat[c] {
							t.Fatalf("PE %d -> %d at %d: local route arrives at %d, want %d", a, b, now, got, now+busLat[c])
						}
						classes[r.Class()]++
						now++
					}
				}
				st := carried.Stats()
				if ref := sent.Stats(); st != ref {
					t.Fatalf("carried routes book %+v, Send %+v", st, ref)
				}
				if byClass := [4]uint64{st.PodLocal, st.DomainHops, st.ClusterBus, st.MeshMsgs}; byClass != classes ||
					st.Messages != classes[0]+classes[1]+classes[2]+classes[3] {
					t.Fatalf("stats %+v, want per-class messages %v", st, classes)
				}
				for c, use := range carried.LinkUse() {
					if use != sent.LinkUse()[c] {
						t.Fatalf("cluster %d link use %v, Send's %v", c, use, sent.LinkUse()[c])
					}
				}
			})
		}
	}
}

// wantClass is the figure's regime of a message from src to dst.
func wantClass(src, dst noc.Loc) noc.Class {
	switch {
	case src.Cluster != dst.Cluster:
		return noc.ClassMesh
	case src.Domain != dst.Domain:
		return noc.ClassCluster
	case src.Pod != dst.Pod:
		return noc.ClassDomain
	}
	return noc.ClassPod
}

func mustNew(t *testing.T, cfg noc.Config) *noc.Network {
	t.Helper()
	n, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}
