package noc

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"wavescalar/internal/trace"
)

func TestLatencyRegimes(t *testing.T) {
	n, err := New(DefaultConfig(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		src, dst Loc
		want     int64
	}{
		{"same PE", Loc{0, 0, 0}, Loc{0, 0, 0}, 1},
		{"intra-pod", Loc{0, 0, 1}, Loc{0, 0, 1}, 1},
		{"intra-domain", Loc{0, 0, 0}, Loc{0, 0, 1}, 4},
		{"intra-cluster", Loc{0, 0, 0}, Loc{0, 1, 0}, 7},
		{"adjacent clusters", Loc{0, 0, 0}, Loc{1, 0, 0}, 8},
		{"corner to corner", Loc{0, 0, 0}, Loc{15, 0, 0}, 7 + 6},
	}
	for _, c := range cases {
		if got := n.Latency(c.src, c.dst); got != c.want {
			t.Errorf("%s: latency = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestLatencySymmetric(t *testing.T) {
	n, _ := New(DefaultConfig(4, 4))
	prop := func(a, b uint8) bool {
		src := Loc{Cluster: int(a) % 16, Domain: int(a) % 4, Pod: int(a) % 2}
		dst := Loc{Cluster: int(b) % 16, Domain: int(b) % 4, Pod: int(b) % 2}
		return n.Latency(src, dst) == n.Latency(dst, src)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSendMatchesLatencyWhenUncontended(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	cfg.LinkBandwidth = 0 // unlimited
	n, _ := New(cfg)
	prop := func(a, b uint8, now uint16) bool {
		src := Loc{Cluster: int(a) % 16}
		dst := Loc{Cluster: int(b) % 16}
		t0 := int64(now)
		return n.Send(src, dst, t0) == t0+n.Latency(src, dst)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBandwidthContention(t *testing.T) {
	cfg := DefaultConfig(2, 1)
	cfg.LinkBandwidth = 1
	n, _ := New(cfg)
	src, dst := Loc{Cluster: 0}, Loc{Cluster: 1}
	t1 := n.Send(src, dst, 100)
	t2 := n.Send(src, dst, 100)
	t3 := n.Send(src, dst, 100)
	if t1 == t2 || t2 == t3 {
		t.Errorf("bandwidth-1 link delivered concurrently: %d %d %d", t1, t2, t3)
	}
	if n.Stats().StallCycles == 0 {
		t.Error("no stall cycles recorded under contention")
	}
	if got := n.LinkUse()[0][0]; got.Msgs != 3 || got.StallCycles != n.Stats().StallCycles {
		t.Errorf("east link of cluster 0: %+v, want 3 messages and all %d stall cycles", got, n.Stats().StallCycles)
	}
}

func TestDimensionOrderHops(t *testing.T) {
	n, _ := New(DefaultConfig(4, 4))
	// Cluster 0 (0,0) to cluster 15 (3,3): 6 hops.
	if h := n.hops(0, 15); h != 6 {
		t.Errorf("hops = %d, want 6", h)
	}
	if h := n.hops(5, 5); h != 0 {
		t.Errorf("self hops = %d", h)
	}
}

func TestMeshStats(t *testing.T) {
	n, _ := New(DefaultConfig(2, 2))
	n.Send(Loc{Cluster: 0}, Loc{Cluster: 0, Domain: 1}, 0)
	n.Send(Loc{Cluster: 0}, Loc{Cluster: 3}, 0)
	st := n.Stats()
	if st.Messages != 2 || st.ClusterBus != 1 || st.MeshMsgs != 1 || st.MeshHops != 2 {
		t.Errorf("stats %+v", st)
	}
	// X first: cluster 0 east to 1, then 1 south to 3.
	used := [][4]trace.LinkUse{{{Msgs: 1}}, {2: {Msgs: 1}}, {}, {}}
	if got := n.LinkUse(); !reflect.DeepEqual(got, used) {
		t.Errorf("link use %v, want %v", got, used)
	}
	if err := n.Reset(DefaultConfig(2, 2)); err != nil {
		t.Fatal(err)
	}
	if got := n.LinkUse(); !reflect.DeepEqual(got, make([][4]trace.LinkUse, 4)) {
		t.Errorf("Reset kept link use %v", got)
	}
}

func TestNewRejectsBadMesh(t *testing.T) {
	if _, err := New(Config{Width: 0, Height: 1}); err == nil {
		t.Error("accepted 0-width mesh")
	}
}

func TestNumClusters(t *testing.T) {
	n, _ := New(DefaultConfig(3, 2))
	if n.NumClusters() != 6 {
		t.Errorf("NumClusters = %d", n.NumClusters())
	}
}

// BenchmarkSend is the operand network on its own, on the default 4x4
// machine: the local mix keeps seven messages in ten inside their source
// cluster (what placement locality produces), the mesh mix sends every
// message across clusters, so every one walks and charges its links.
func BenchmarkSend(b *testing.B) {
	for _, mix := range []struct {
		name      string
		localIn10 int
	}{{"local", 7}, {"mesh", 0}} {
		b.Run(mix.name, func(b *testing.B) {
			n, err := New(DefaultConfig(4, 4))
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			type msg struct{ src, dst Loc }
			var ring [1 << 12]msg
			loc := func(cluster int) Loc {
				return Loc{Cluster: cluster, Domain: rng.Intn(4), Pod: rng.Intn(4)}
			}
			for i := range ring {
				c := rng.Intn(16)
				ring[i].src = loc(c)
				if rng.Intn(10) >= mix.localIn10 {
					c = (c + 1 + rng.Intn(15)) % 16
				}
				ring[i].dst = loc(c)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var sink int64
			for i := 0; i < b.N; i++ {
				m := &ring[i&(len(ring)-1)]
				sink += n.Send(m.src, m.dst, int64(i))
			}
			if sink == 0 {
				b.Fatal("every latency was 0")
			}
		})
	}
}
