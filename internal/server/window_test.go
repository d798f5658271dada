package server_test

// Read-ahead windows end to end (DESIGN.md §16): on a view whose region
// is complete, a vxdp.Client answers from the windows the server ships
// and explores exactly what a local replay explores, in a fraction of
// the round trips and with no source work; on a view that is not
// complete, windows ship the nodes the entry knows and cost the sources
// nothing: the same source navigations, fewer frames.

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"testing"

	"mix/internal/mediator"
	"mix/internal/metrics"
	"mix/internal/nav"
	"mix/internal/vxdp"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

// winRegions is wide enough that a whole exploration takes several
// windows.
const winRegions = 60

var personas = []string{"deep-drill", "glance", "select-heavy"}

// winHomes is the source of the windows tests' view.
func winHomes() *xmltree.Tree {
	homes, _ := workload.HomesSchools(winRegions, 1, 4, 31)
	return homes
}

// dialOpen opens pfQuery in a fresh session on addr.
func dialOpen(t *testing.T, addr string) *vxdp.Client {
	t.Helper()
	c, err := vxdp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Open(pfQuery); err != nil {
		t.Fatal(err)
	}
	return c
}

// winStart boots a server over homes and explores the view once, so its
// region-cache entry is complete and later sessions get windows. It
// returns the answer and the server's counted demand sources.
func winStart(t *testing.T, homes *xmltree.Tree) (addr, want string, src *metrics.Counters) {
	t.Helper()
	_, addr, src = pfStart(t, homes)
	tree, err := nav.Materialize(dialOpen(t, addr))
	if err != nil {
		t.Fatal(err)
	}
	return addr, xmltree.MarshalXML(tree), src
}

// replay runs script through doc and returns the explored parts.
func replay(t *testing.T, doc nav.Document, script []workload.Step) []string {
	t.Helper()
	var out []string
	err := workload.ReplayPersona(doc, script, func(_ int, explored string) error {
		out = append(out, explored)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func equalParts(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d explored parts, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: step %d explored\n%s\nwant\n%s", what, i, got[i], want[i])
		}
	}
}

// TestWindowPersonaReplayMatchesLocal: every persona replayed through a
// client on a complete view explores exactly what a local replay does,
// with no source navigation; deep-drill takes at least 10× fewer round
// trips than it issues commands.
func TestWindowPersonaReplayMatchesLocal(t *testing.T) {
	homes := winHomes()
	addr, _, src := winStart(t, homes)
	before := src.Navigations()
	for _, p := range personas {
		script := workload.PersonaScript(p, winRegions, 7)
		c := dialOpen(t, addr)
		counted := nav.NewCountingDoc(c)
		var doc nav.Document = counted
		if p == "select-heavy" {
			doc = c // keep SelectLabel in play
		}
		equalParts(t, p, replay(t, doc, script), pfOracle(t, homes, script))
		if p == "deep-drill" {
			cmds, trips := counted.Counters.Navigations(), c.RoundTrips()-1 // the open
			if trips*10 > cmds {
				t.Fatalf("deep-drill: %d round trips for %d commands, want ≥ 10× fewer", trips, cmds)
			}
		}
	}
	if n := src.Navigations() - before; n != 0 {
		t.Fatalf("replays on a complete view cost %d source navigations", n)
	}
}

// rawDoc navigates a session frame by frame, one frame per command,
// ignoring any window a response carries: a client that has never
// heard of windows.
type rawDoc struct {
	t      *testing.T
	r      *bufio.Reader
	w      *bufio.Writer
	resp   vxdp.Response
	frames int64
}

func dialRaw(t *testing.T, addr string) *rawDoc {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	d := &rawDoc{t: t, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}
	d.do(vxdp.Request{Cmd: vxdp.Cmd{Op: vxdp.OpOpen}, Query: pfQuery})
	return d
}

func (d *rawDoc) do(req vxdp.Request) *vxdp.Response {
	d.frames++
	if err := vxdp.WriteRequest(d.w, &req); err != nil || d.w.Flush() != nil {
		d.t.Fatal(err)
	}
	if err := vxdp.ReadResponse(d.r, &d.resp); err != nil || d.resp.Err != "" {
		d.t.Fatalf("%s: %v %s", req.Op, err, d.resp.Err)
	}
	return &d.resp
}

func (d *rawDoc) node(op string, p nav.ID, label string, self bool) nav.ID {
	var h uint64
	if p != nil {
		h = p.(uint64)
	}
	if r := d.do(vxdp.Request{Cmd: vxdp.Cmd{Op: op, ID: h, Label: label, Self: self}}); r.OK {
		return r.ID
	}
	return nil
}

func (d *rawDoc) Root() (nav.ID, error)          { return d.node(vxdp.OpRoot, nil, "", false), nil }
func (d *rawDoc) Down(p nav.ID) (nav.ID, error)  { return d.node(vxdp.OpDown, p, "", false), nil }
func (d *rawDoc) Right(p nav.ID) (nav.ID, error) { return d.node(vxdp.OpRight, p, "", false), nil }
func (d *rawDoc) Fetch(p nav.ID) (string, error) {
	return d.do(vxdp.Request{Cmd: vxdp.Cmd{Op: vxdp.OpFetch, ID: p.(uint64)}}).Label, nil
}
func (d *rawDoc) SelectLabel(p nav.ID, label string, fromSelf bool) (nav.ID, error) {
	return d.node(vxdp.OpSelect, p, label, fromSelf), nil
}

// TestWindowIncompleteViewUnchanged: on a fresh view, without prefetch,
// a client explores what a window-unaware client explores, and the
// sources see the same navigations: the windows of a view that is not
// complete ship only what the entry knows. The client sends at least
// one frame fewer (the open answers the root), and exactly the pinned
// count: the windows' leaves answer the rights across region tops the
// entry knows.
func TestWindowIncompleteViewUnchanged(t *testing.T) {
	homes := winHomes()
	// A window-unaware client sends 1 262, 105 and 1 253 frames. Before
	// windows shipped leaves, the client sent one fewer each; now a
	// select-heavy client, which restarts from the root, scans the tops
	// it has seen without asking.
	frames := map[string]int64{"deep-drill": 1261, "glance": 104, "select-heavy": 297}
	for _, p := range personas {
		script := workload.PersonaScript(p, winRegions, 7)
		_, addr, src := pfStart(t, homes)
		c := dialOpen(t, addr)
		got := replay(t, c, script)
		_, rawAddr, rawSrc := pfStart(t, homes)
		raw := dialRaw(t, rawAddr)
		equalParts(t, p, got, replay(t, raw, script))
		if c.RoundTrips() != frames[p] || c.RoundTrips() > raw.frames-1 {
			t.Fatalf("%s: client sent %d frames, want %d; a window-unaware client %d", p, c.RoundTrips(), frames[p], raw.frames)
		}
		if got, want := src.Snapshot(), rawSrc.Snapshot(); got != want {
			t.Fatalf("%s: source navigations %+v, window-unaware client %+v", p, got, want)
		}
	}
}

// TestWindowHandleResolvedByServer: a move the window cannot decide (a
// −2 link) goes out as one command naming a window-issued handle, which
// the server resolves through the region cache (Doc.WindowNode); the
// move lands where a local replay lands.
func TestWindowHandleResolvedByServer(t *testing.T) {
	homes := winHomes()
	addr, _, _ := winStart(t, homes)
	m := mediator.New(mediator.DefaultOptions())
	m.RegisterTree("homesSrc", homes)
	res, err := m.Query(pfQuery)
	if err != nil {
		t.Fatal(err)
	}
	local := res.Document()
	c := dialOpen(t, addr)
	cur, lcur := firstChild(t, c), firstChild(t, local)
	for {
		trips := c.RoundTrips()
		next, err := c.Right(cur)
		if err != nil {
			t.Fatal(err)
		}
		lnext, err := local.Right(lcur)
		if err != nil {
			t.Fatal(err)
		}
		if lnext == nil {
			t.Fatal("windows answered every top-level move; the view needs more regions")
		}
		if next == nil {
			t.Fatal("the client fell off the answer before the local replay did")
		}
		cur, lcur = next, lnext
		if c.RoundTrips() == trips {
			continue
		}
		if n := c.RoundTrips() - trips; n != 1 {
			t.Fatalf("the undecided move took %d round trips, want 1", n)
		}
		if got, want := nodeLabels(t, c, cur), nodeLabels(t, local, lcur); got != want {
			t.Fatalf("the server landed on %q, a local replay on %q", got, want)
		}
		return
	}
}

// firstChild returns the first child of doc's root.
func firstChild(t *testing.T, doc nav.Document) nav.ID {
	t.Helper()
	root, err := doc.Root()
	if err != nil {
		t.Fatal(err)
	}
	first, err := doc.Down(root)
	if err != nil || first == nil {
		t.Fatalf("first child: %v, %v", first, err)
	}
	return first
}

// nodeLabels renders p's label and its children's labels.
func nodeLabels(t *testing.T, doc nav.Document, p nav.ID) string {
	t.Helper()
	out, err := doc.Fetch(p)
	if err != nil {
		t.Fatal(err)
	}
	for ch, err := doc.Down(p); ch != nil; ch, err = doc.Right(ch) {
		if err != nil {
			t.Fatal(err)
		}
		l, err := doc.Fetch(ch)
		if err != nil {
			t.Fatal(err)
		}
		out += " " + l
	}
	return out
}

// TestWindowConcurrentNavigation: eight goroutines materializing the
// view through one client (run with -race) all get the answer.
func TestWindowConcurrentNavigation(t *testing.T) {
	addr, want, _ := winStart(t, winHomes())
	c := dialOpen(t, addr)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tree, err := nav.Materialize(c)
			if err == nil && xmltree.MarshalXML(tree) != want {
				t.Error("concurrent materialization differs from the answer")
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// wireSession speaks raw frames, so a test sees every response's
// window and can name any handle.
type wireSession struct {
	t *testing.T
	r *bufio.Reader
	w *bufio.Writer
}

func dialWire(t *testing.T, addr string) *wireSession {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	s := &wireSession{t: t, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}
	s.do(vxdp.OpOpen, 0)
	return s
}

// do sends one command on handle h; an open sends pfQuery.
func (s *wireSession) do(op string, h uint64) vxdp.Response {
	s.t.Helper()
	req := vxdp.Request{Cmd: vxdp.Cmd{Op: op, ID: h}}
	if op == vxdp.OpOpen {
		req.Query = pfQuery
	}
	var resp vxdp.Response
	if err := vxdp.WriteRequest(s.w, &req); err != nil || s.w.Flush() != nil {
		s.t.Fatal(err)
	}
	if err := vxdp.ReadResponse(s.r, &resp); err != nil || resp.Err != "" {
		s.t.Fatalf("%s %d: %v %s", op, h, err, resp.Err)
	}
	return resp
}

// treeAt returns the node of tree at path, nil past its end.
func treeAt(tree *xmltree.Tree, path []int) *xmltree.Tree {
	for _, i := range path {
		if i >= len(tree.Children) {
			return nil
		}
		tree = tree.Children[i]
	}
	return tree
}

// downOf and rightOf are the paths of p's first child and right sibling.
func downOf(p []int) []int  { return append(append([]int(nil), p...), 0) }
func rightOf(p []int) []int { return append(append([]int(nil), p[:len(p)-1]...), p[len(p)-1]+1) }

// windowPaths lists, in window order, the paths of tree's window at
// anchor (not the root): the anchor, its subtree, then its right
// siblings and their subtrees.
func windowPaths(tree *xmltree.Tree, anchor []int) [][]int {
	var out [][]int
	var walk func(path []int)
	walk = func(path []int) {
		out = append(out, path)
		for i := range treeAt(tree, path).Children {
			walk(append(append([]int(nil), path...), i))
		}
	}
	parent := anchor[:len(anchor)-1]
	for i := anchor[len(anchor)-1]; i < len(treeAt(tree, parent).Children); i++ {
		walk(append(append([]int(nil), parent...), i))
	}
	return out
}

// shippedPaths lists the paths of win's nodes, a window at anchor (not
// the root): its closed prefix in tree's window order, then its leaves,
// each the right sibling of the node before it.
func shippedPaths(tree *xmltree.Tree, anchor []int, win []vxdp.WinNode) [][]int {
	paths := windowPaths(tree, anchor)
	out := make([][]int, len(win))
	for i, n := range win {
		switch {
		case !n.Unknown:
			out[i] = paths[i]
		case i > 0 && win[i-1].Unknown:
			out[i] = rightOf(out[i-1])
		default:
			out[i] = paths[i] // the first leaf follows the closed prefix
		}
	}
	return out
}

// checkWindow fails unless win is a prefix of tree's window at anchor,
// its leaves each the right sibling of the node before, whose every ⊥
// and in-window link the tree confirms, and whose leaves ship neither a
// label nor a child.
func checkWindow(t *testing.T, what string, tree *xmltree.Tree, anchor []int, win []vxdp.WinNode) {
	t.Helper()
	if paths := windowPaths(tree, anchor); len(win) > len(paths) {
		t.Fatalf("%s: %d window nodes, the answer's window order has %d", what, len(win), len(paths))
	}
	paths := shippedPaths(tree, anchor, win)
	for i, n := range win {
		p := paths[i]
		if treeAt(tree, p) == nil {
			t.Fatalf("%s: node %d %v is not in the answer", what, i, p)
		}
		if l := treeAt(tree, p).Label; !n.Unknown && n.Label != l || n.Unknown && (n.Label != "" || n.Down != vxdp.WinOut) {
			t.Fatalf("%s: node %d %v ships %+v, a local replay's label %q", what, i, p, n, l)
		}
		for _, l := range []struct {
			link int32
			to   []int
		}{{n.Down, downOf(p)}, {n.Right, rightOf(p)}} {
			switch {
			case l.link == vxdp.WinOut:
			case l.link == vxdp.WinNone:
				if treeAt(tree, l.to) != nil {
					t.Fatalf("%s: node %d %v links ⊥ where a local replay has %v", what, i, p, l.to)
				}
			case int(l.link) >= len(win) || fmt.Sprint(paths[l.link]) != fmt.Sprint(l.to):
				t.Fatalf("%s: node %d %v links %d where a local replay has %v", what, i, p, l.link, l.to)
			}
		}
	}
}

// TestWindowHandlesStayBoundWhileEntryGrows: windows shipped from an
// incomplete entry — one whose closed prefix ends at a region that is
// not closed and goes on with leaves, one made of leaves only, one cut
// at the end of a child list the entry has not seen end — hold only
// what a local replay holds. After a second session walks the first
// leaf closed, and again after it explores the whole view, every handle
// of every window still names the node it was shipped for: fetch, down
// and right on each answer what a local replay answers.
func TestWindowHandlesStayBoundWhileEntryGrows(t *testing.T) {
	homes := winHomes()
	_, addr, _ := pfStart(t, homes)
	m := mediator.New(mediator.DefaultOptions())
	m.RegisterTree("homesSrc", homes)
	res, err := m.Query(pfQuery)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := nav.Materialize(res.Document())
	if err != nil {
		t.Fatal(err)
	}

	// Close regions 0 and 1 and the first child of region 2; learn
	// region 2's label and that regions 3 and 4 exist, but leave their
	// child lists open.
	ex := dialOpen(t, addr)
	r0 := firstChild(t, ex)
	r1, _ := ex.Right(r0)
	r2, _ := ex.Right(r1)
	if _, err := ex.Fetch(r2); err != nil {
		t.Fatal(err)
	}
	c20, _ := ex.Down(r2)
	for _, p := range []nav.ID{r0, r1, c20} {
		if _, err := nav.Subtree(ex, p); err != nil {
			t.Fatal(err)
		}
	}
	r3, _ := ex.Right(r2)
	if _, err := ex.Right(r3); err != nil {
		t.Fatal(err)
	}

	s := dialWire(t, addr)
	root := s.do(vxdp.OpRoot, 0)
	at0 := s.do(vxdp.OpDown, root.ID)
	size := func(p []int) int { return treeAt(tree, p).Size() }
	closed := size([]int{0}) + size([]int{1})
	if len(at0.Win) != closed+3 || at0.Win[closed-1].Unknown || !at0.Win[closed].Unknown || at0.Win[closed+2].Right != vxdp.WinOut {
		t.Fatalf("window at region 0: %d nodes, want regions 0 and 1 (%d) then regions 2 to 4 as leaves", len(at0.Win), closed)
	}
	at2 := s.do(vxdp.OpRight, at0.ID+uint64(size([]int{0})))
	if len(at2.Win) != 3 || !at2.Win[0].Unknown {
		t.Fatalf("region 2 is not closed: its landing shipped %+v, want regions 2 to 4 as leaves", at2.Win)
	}
	at20 := s.do(vxdp.OpDown, at2.ID)
	if want := size([]int{2, 0}); len(at20.Win) != want || at20.Win[0].Right != vxdp.WinOut {
		t.Fatalf("window at region 2's first child: %+v, want its %d-node subtree cut at the open list end", at20.Win, want)
	}
	wins := []struct {
		anchor []int
		at     vxdp.Response
	}{{[]int{0}, at0}, {[]int{2}, at2}, {[]int{2, 0}, at20}}
	for _, w := range wins {
		checkWindow(t, fmt.Sprintf("window at %v", w.anchor), tree, w.anchor, w.at.Win)
	}

	checkHandles := func(complete bool) {
		t.Helper()
		for _, w := range wins {
			paths := shippedPaths(tree, w.anchor, w.at.Win)
			for i := range w.at.Win {
				h, p := w.at.ID+uint64(i), paths[i]
				if got, want := s.do(vxdp.OpFetch, h).Label, treeAt(tree, p).Label; got != want {
					t.Fatalf("fetch on node %d %v of the window at %v: %q, a local replay %q", i, p, w.anchor, got, want)
				}
				for _, mv := range []struct {
					op string
					to []int
				}{{vxdp.OpDown, downOf(p)}, {vxdp.OpRight, rightOf(p)}} {
					what := fmt.Sprintf("%s on node %d %v of the window at %v", mv.op, i, p, w.anchor)
					resp := s.do(mv.op, h)
					if exists := treeAt(tree, mv.to) != nil; resp.OK != exists {
						t.Fatalf("%s: ok=%v, a local replay %v", what, resp.OK, exists)
					}
					if !resp.OK {
						continue
					}
					// On a complete view, the landing ships the landed
					// node's window, which pins where it landed.
					if complete && len(resp.Win) == 0 {
						t.Fatalf("%s: no window on a complete view", what)
					}
					checkWindow(t, what, tree, mv.to, resp.Win)
				}
			}
		}
	}
	// Walk region 2, the first leaf of the windows at regions 0 and 2,
	// closed: had a leaf's handle been resolved through the window order,
	// regions 3 and 4 would now name nodes of region 2.
	if _, err := nav.Subtree(ex, r2); err != nil {
		t.Fatal(err)
	}
	checkHandles(false)
	if _, err := nav.Materialize(dialOpen(t, addr)); err != nil {
		t.Fatal(err)
	}
	checkHandles(true)
}
