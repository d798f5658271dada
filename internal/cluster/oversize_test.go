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

// TestOversizedRegionStaysLocal: Flush does not put a region over
// MaxRegionWire to its owner, but marks it flushed, so later sweeps skip
// it until it grows; a small region under a key of the same owner does
// go out.
func TestOversizedRegionStaysLocal(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	defer l.Close()
	var mu sync.Mutex
	var puts []vxdp.RegionKey
	wg.Add(1)
	go func() { // the owner: records region_puts, answers every frame OK
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
				puts = append(puts, *req.Region)
				mu.Unlock()
			}
			if vxdp.WriteFrame(conn, vxdp.Response{NavResult: vxdp.NavResult{OK: true}}) != nil {
				return
			}
		}
	}()

	cache := regioncache.New(0)
	n, err := New(Config{Self: "127.0.0.1:7800", Peers: []string{l.Addr().String()}, Logger: quietLogger()}, cache)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	var keys []regioncache.Key
	for i := 0; len(keys) < 2; i++ {
		if fp := "fp" + strconv.Itoa(i); n.Owner("v", fp) == l.Addr().String() {
			keys = append(keys, regioncache.Key{Generation: cache.Generation(), Registry: 1, Name: "v", Fingerprint: fp})
		}
	}
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
	mu.Lock()
	got := slices.Clone(puts)
	mu.Unlock()
	if want := []vxdp.RegionKey{vxdp.WireKey(keys[1])}; !slices.Equal(got, want) {
		t.Fatalf("region_puts %+v, want only the small region's %+v", got, want)
	}
	n.flushMu.Lock()
	mut, ok := n.flushed[keys[0]]
	n.flushMu.Unlock()
	if !ok || mut != cache.Peek(keys[0]).Mutations() {
		t.Fatalf("oversized region flushed at %d (%v), want marked at %d", mut, ok, cache.Peek(keys[0]).Mutations())
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
