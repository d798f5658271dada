package cluster

import (
	"encoding/json"
	"net"
	"slices"
	"strconv"
	"sync"
	"testing"

	"mix/internal/nav"
	"mix/internal/regioncache"
	"mix/internal/vxdp"
	"mix/internal/xmltree"
)

// oversized returns a region whose encoding is just over MaxRegionWire:
// a root and more than 10⁴ leaves, two in three with unknown labels and
// the rest with labels that encode escaped, so a per-node bound that
// undercounts the flag or the escapes lets it through.
func oversized(t *testing.T) regioncache.Region {
	t.Helper()
	r := regioncache.Region{{Label: "r", Down: 1, Right: regioncache.WindowNone}}
	size := 1 // the closing bracket; each node adds itself and a separator
	for size <= MaxRegionWire {
		n := regioncache.WindowNode{Down: regioncache.WindowOut, Right: int32(len(r) + 1), Unknown: true}
		if len(r)%3 == 0 {
			n.Label, n.Unknown = "<&>", false
		}
		r = append(r, n)
		enc, _ := json.Marshal(n)
		size += len(enc) + 1
	}
	r[len(r)-1].Right = regioncache.WindowOut
	if enc, err := json.Marshal(r); err != nil || len(enc) <= MaxRegionWire || len(r) <= 1e4 {
		t.Fatalf("oversized region: %d nodes encode to %d bytes (%v), want more than 10⁴ nodes over %d", len(r), len(enc), err, MaxRegionWire)
	}
	return r
}

// fakeOwner listens on loopback as a peer that answers every frame OK
// and records the keys of the region_puts it receives; puts returns
// them so far.
func fakeOwner(t *testing.T) (addr string, puts func() []vxdp.RegionKey) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() { l.Close(); wg.Wait() })
	var mu sync.Mutex
	var got []vxdp.RegionKey
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			var req vxdp.Request
			if vxdp.ReadFrame(conn, &req) != nil {
				return
			}
			if req.Op == vxdp.OpRegionPut {
				mu.Lock()
				got = append(got, *req.Region)
				mu.Unlock()
			}
			if vxdp.WriteFrame(conn, vxdp.Response{NavResult: vxdp.NavResult{OK: true}}) != nil {
				return
			}
		}
	}()
	return l.Addr().String(), func() []vxdp.RegionKey {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(got)
	}
}

// ownedKeys returns count keys of view v in cache's generation that
// owner owns on n's ring.
func ownedKeys(n *Node, cache *regioncache.Cache, owner string, count int) []regioncache.Key {
	var keys []regioncache.Key
	for i := 0; len(keys) < count; i++ {
		if fp := "fp" + strconv.Itoa(i); n.Owner("v", fp) == owner {
			keys = append(keys, regioncache.Key{Generation: cache.Generation(), Registry: 1, Name: "v", Fingerprint: fp})
		}
	}
	return keys
}

// TestOversizedRegionStaysLocal: Flush does not put a region over
// MaxRegionWire to its owner, but marks it flushed, so later sweeps skip
// it until it grows; a small region under a key of the same owner does
// go out.
func TestOversizedRegionStaysLocal(t *testing.T) {
	owner, puts := fakeOwner(t)
	cache := regioncache.New(0)
	n, err := New(Config{Self: "127.0.0.1:7800", Peers: []string{owner}, Logger: quietLogger()}, cache)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	keys := ownedKeys(n, cache, owner, 2)
	big, small := oversized(t), regioncache.Region{{Label: "a", Down: regioncache.WindowNone, Right: regioncache.WindowNone}}
	explore(t, cache, keys[0], big)
	explore(t, cache, keys[1], small)
	if got := cache.Peek(keys[0]).Export(); !slices.Equal(*got, big) {
		t.Fatal("the explored region does not export as the one asked for")
	}
	if RegionFits(&big) {
		t.Fatal("RegionFits passes a region over MaxRegionWire")
	}

	n.Flush()
	if got, want := puts(), []vxdp.RegionKey{vxdp.WireKey(keys[1])}; !slices.Equal(got, want) {
		t.Fatalf("region_puts %+v, want only the small region's %+v", got, want)
	}
	if e := cache.Peek(keys[0]); e.Published() != e.Mutations() {
		t.Fatalf("oversized region flushed at %d, want marked at %d", e.Published(), e.Mutations())
	}
}

// TestFlushRepublishesAfterEviction: the record of what Flush published
// dies with the entry. A key published, evicted and derived again to the
// same mutation count is published again by the next Flush.
func TestFlushRepublishesAfterEviction(t *testing.T) {
	owner, puts := fakeOwner(t)
	cache := regioncache.New(4 << 10)
	n, err := New(Config{Self: "127.0.0.1:7800", Peers: []string{owner}, Logger: quietLogger()}, cache)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	keys := ownedKeys(n, cache, owner, 200)
	small := regioncache.Region{
		{Label: "a", Down: 1, Right: regioncache.WindowNone},
		{Label: "b", Down: regioncache.WindowNone, Right: regioncache.WindowNone},
	}
	explore(t, cache, keys[0], small)
	mut := cache.Peek(keys[0]).Mutations()
	n.Flush()
	if got := len(puts()); got != 1 {
		t.Fatalf("%d region_puts after the first Flush, want 1", got)
	}
	for _, k := range keys[1:] {
		if cache.Peek(keys[0]) == nil {
			break
		}
		explore(t, cache, k, small)
	}
	if cache.Peek(keys[0]) != nil {
		t.Fatalf("%d entries in a %d-byte cache did not evict the first", len(keys), 4<<10)
	}
	explore(t, cache, keys[0], small)
	if got := cache.Peek(keys[0]).Mutations(); got != mut {
		t.Fatalf("re-derived entry at mutation %d, want the first derivation's %d", got, mut)
	}
	before := len(puts())
	n.Flush()
	if !slices.Contains(puts()[before:], vxdp.WireKey(keys[0])) {
		t.Fatal("Flush skipped a re-derived key because its evicted entry had been published")
	}
}

// explore grows k's entry into the flat region r (a root and its
// children) the way a session's navigations do, so the growth is local
// and Flush publishes it: the producer serves r's shape, and the walk
// fetches the labels r knows and probes exactly the child lists r
// closes.
func explore(t *testing.T, cache *regioncache.Cache, k regioncache.Key, r regioncache.Region) {
	t.Helper()
	kids := make([]*xmltree.Tree, len(r)-1)
	for i := range kids {
		kids[i] = xmltree.Leaf(r[i+1].Label)
	}
	tree := xmltree.Elem(r[0].Label, kids...)
	doc := regioncache.NewDoc(cache.Open(k), func() nav.Document { return nav.NewTreeDoc(tree) }, nil)
	id, err := doc.Root()
	for i := 0; err == nil && id != nil; i++ {
		if !r[i].Unknown {
			_, err = doc.Fetch(id)
		}
		if err == nil && i > 0 && r[i].Down == regioncache.WindowNone {
			_, err = doc.Down(id) // a leaf: its empty list closes
		}
		switch {
		case err != nil:
		case i == 0:
			id, err = doc.Down(id)
		case i+1 < len(r) || r[i].Right == regioncache.WindowNone:
			id, err = doc.Right(id)
		default:
			id = nil
		}
	}
	if err != nil {
		t.Fatal(err)
	}
}
