package mix_test

// Read-ahead windows across a fleet (DESIGN.md §16): windows an owner
// ships pass through a proxying node untouched, and every event that
// can make a handle name another node — owner loss, a reopen — leaves
// the client with no window to answer from. All under -race.

import (
	"testing"

	"mix/internal/cluster"
	"mix/internal/fleet"
	"mix/internal/nav"
	"mix/internal/regioncache"
	"mix/internal/server"
	"mix/internal/vxdp"
	"mix/internal/xmltree"
)

// proxiedWarmSession opens q on a non-owner of a proxy-mode fleet after
// the owner's entry for q is complete, so the owner ships windows and
// the non-owner relays them. The non-owner opens q once before the
// owner's entry completes: its own entry then exists, incomplete, and
// later opens there are proxied rather than filled from the owner.
func proxiedWarmSession(t *testing.T, h *fleet.Fleet, q string) (c *vxdp.Client, entry, owner int) {
	t.Helper()
	owner = ownerOf(t, h, q)
	entry = (owner + 1) % len(h.Members)
	early, err := vxdp.Dial(h.Members[entry].Addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := early.Open(q); err != nil {
		t.Fatal(err)
	}
	early.Close()
	materializeVia(t, h.Members[owner].Addr, q)
	c, err = vxdp.Dial(h.Members[entry].Addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Open(q); err != nil {
		t.Fatal(err)
	}
	return c, entry, owner
}

// TestWindowProxyFleetByteIdentical: through a non-owner, a windowed
// session's answer is byte-identical to in-process evaluation, and the
// windows really did the work.
func TestWindowProxyFleetByteIdentical(t *testing.T) {
	h := startCluster(t, 3, cluster.ModeProxy)
	q := queryCorpus[1].q
	want := wantAnswer(t, q)
	c, entry, _ := proxiedWarmSession(t, h, q)
	proxied := h.Members[entry].Node.Stats().Proxied
	tree, err := nav.Materialize(c)
	if err != nil {
		t.Fatal(err)
	}
	if got := xmltree.MarshalXML(tree); got != want {
		t.Fatalf("windowed answer through a non-owner differs\ngot:  %s\nwant: %s", got, want)
	}
	if h.Members[entry].Node.Stats().Proxied == proxied {
		t.Fatal("the session was not proxied")
	}
	if nodes := countNodes(tree); c.RoundTrips()*4 > int64(nodes) {
		t.Fatalf("%d round trips for a %d-node answer: windows did not pass through", c.RoundTrips(), nodes)
	}
}

func countNodes(t *xmltree.Tree) int {
	n := 1
	for _, c := range t.Children {
		n += countNodes(c)
	}
	return n
}

// TestWindowOwnerLossServesNoDeadHandle: when the owner dies under a
// windowed proxied session, the "restart from root" error clears the
// windows: neither the old nodes nor the old root are answered locally
// afterwards, and restarting from the root gets the answer.
func TestWindowOwnerLossServesNoDeadHandle(t *testing.T) {
	h := startCluster(t, 3, cluster.ModeProxy)
	q := queryCorpus[1].q
	want := wantAnswer(t, q)
	c, _, owner := proxiedWarmSession(t, h, q)
	root, err := c.Root()
	if err != nil {
		t.Fatal(err)
	}
	child, _ := c.Down(root)
	trips := c.RoundTrips()
	if _, err := c.Fetch(child); err != nil || c.RoundTrips() != trips {
		t.Fatalf("window did not answer before the owner died: %v", err)
	}
	// Find a top-level node whose right sibling no window decides: a
	// right move from it always goes to the wire.
	var edge nav.ID
	for cur := child; cur != nil && edge == nil; {
		trips = c.RoundTrips()
		next, err := c.Right(cur)
		if err != nil {
			t.Fatal(err)
		}
		if c.RoundTrips() != trips {
			edge = cur
		}
		cur = next
	}
	if edge == nil {
		t.Fatal("windows decided every top-level move; the answer needs more children")
	}

	if err := h.Stop(owner); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Right(edge); err == nil {
		t.Fatal("command after owner death succeeded; want a restart notice")
	}
	trips = c.RoundTrips()
	_, _ = c.Fetch(child)
	if c.RoundTrips() != trips+1 {
		t.Fatal("a node of a dead window was answered locally")
	}
	trips = c.RoundTrips()
	if _, err := c.Root(); err != nil || c.RoundTrips() != trips+1 {
		t.Fatalf("root after the restart notice: %v, %d round trips, want one", err, c.RoundTrips()-trips)
	}
	tree, err := nav.Materialize(c)
	if err != nil {
		t.Fatal(err)
	}
	if xmltree.MarshalXML(tree) != want {
		t.Fatal("answer after restarting from root differs")
	}
}

// TestWindowReopenClearsWindows: opening another view on the same
// client leaves no window of the previous view to answer from — a
// handle of the old view costs a round trip and fails — and the new
// view's answer is the in-process one.
func TestWindowReopenClearsWindows(t *testing.T) {
	_, addr := startMixd(t, server.WithRegionCache(regioncache.New(0)))
	first, second := queryCorpus[1].q, queryCorpus[2].q
	materializeVia(t, addr, first)
	c, err := vxdp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Open(first); err != nil {
		t.Fatal(err)
	}
	root, _ := c.Root()
	child, _ := c.Down(root)
	trips := c.RoundTrips()
	if _, err := c.Fetch(child); err != nil || c.RoundTrips() != trips {
		t.Fatal("the server shipped no window for a complete view")
	}

	if err := c.Open(second); err != nil {
		t.Fatal(err)
	}
	trips = c.RoundTrips()
	if _, err := c.Fetch(child); err == nil {
		t.Fatal("a node of the previous view was answered after the reopen")
	}
	if c.RoundTrips() != trips+1 {
		t.Fatalf("fetch of the previous view's node took %d round trips, want 1", c.RoundTrips()-trips)
	}
	if got := materializeTree(t, c); got != wantAnswer(t, second) {
		t.Fatal("answer after the reopen differs")
	}
}

func materializeTree(t *testing.T, doc nav.Document) string {
	t.Helper()
	tree, err := nav.Materialize(doc)
	if err != nil {
		t.Fatal(err)
	}
	return xmltree.MarshalXML(tree)
}
