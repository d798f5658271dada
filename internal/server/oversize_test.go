package server_test

import (
	"encoding/json"
	"testing"

	"mix/internal/cluster"
	"mix/internal/nav"
	"mix/internal/regioncache"
	"mix/internal/vxdp"
	"mix/internal/xmltree"
)

// TestOversizedRegionStaysLocal: region_get answers a miss for a region
// whose encoding is over cluster.MaxRegionWire — a root and more than
// 10⁴ leaves, two in three with unknown labels and the rest with labels
// that encode escaped, so a per-node bound that undercounts lets it
// through — and a hit for a small one.
func TestOversizedRegionStaysLocal(t *testing.T) {
	srv, addr := serve(t, semFactory(nav.NewTreeDoc(xmltree.Leaf("x"))))
	big := regioncache.Region{{Label: "r", Down: 1, Right: regioncache.WindowNone}}
	for size := 1; size <= cluster.MaxRegionWire; {
		n := regioncache.WindowNode{Down: regioncache.WindowOut, Right: int32(len(big) + 1), Unknown: true}
		if len(big)%3 == 0 {
			n.Label, n.Unknown = "<&>", false
		}
		big = append(big, n)
		enc, _ := json.Marshal(n)
		size += len(enc) + 1
	}
	big[len(big)-1].Right = regioncache.WindowOut
	if enc, err := json.Marshal(big); err != nil || len(enc) <= cluster.MaxRegionWire || len(big) <= 1e4 {
		t.Fatalf("%d nodes encode to %d bytes (%v), want more than 10⁴ nodes over %d", len(big), len(enc), err, cluster.MaxRegionWire)
	}
	small := regioncache.Region{{Label: "a", Down: regioncache.WindowNone, Right: regioncache.WindowNone}}

	rc := srv.RegionCache()
	key := func(fp string) regioncache.Key {
		return regioncache.Key{Generation: rc.Generation(), Registry: 1, Name: "v", Fingerprint: fp}
	}
	if !rc.Absorb(key("big"), &big) || !rc.Absorb(key("small"), &small) {
		t.Fatal("absorb rejected")
	}
	c, err := vxdp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if reg, err := c.RegionGet(vxdp.WireKey(key("big"))); err != nil || reg != nil {
		t.Fatalf("region_get of the oversized region: %d nodes (%v), want a miss", reg.Nodes(), err)
	}
	if reg, err := c.RegionGet(vxdp.WireKey(key("small"))); err != nil || reg.Nodes() != 1 {
		t.Fatalf("region_get of the small region: %d nodes (%v), want 1", reg.Nodes(), err)
	}
}
