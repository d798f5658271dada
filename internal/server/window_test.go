package server_test

// Read-ahead windows end to end (DESIGN.md §16): on a view whose region
// is complete, a vxdp.Client answers from the windows the server ships
// and explores exactly what a local replay explores, in a fraction of
// the round trips and with no source work; on a view that is not
// complete, nothing changes — no window, the same frames, the same
// source navigations.

import (
	"bufio"
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
	_, addr, src, _ = pfStart(t, homes)
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
// and fails the test if any response carries a window: a client that
// has never heard of windows.
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
	if len(d.resp.Win) > 0 {
		d.t.Fatalf("%s on a view that is not complete shipped a %d-node window", req.Op, len(d.resp.Win))
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

// TestWindowIncompleteViewUnchanged: on a fresh view, a client sends
// exactly the frames a window-unaware client sends, no response carries
// a window, and the sources see the same navigations.
func TestWindowIncompleteViewUnchanged(t *testing.T) {
	homes := winHomes()
	for _, p := range personas {
		script := workload.PersonaScript(p, winRegions, 7)
		_, addr, src, _ := pfStart(t, homes)
		c := dialOpen(t, addr)
		got := replay(t, c, script)
		_, rawAddr, rawSrc, _ := pfStart(t, homes)
		raw := dialRaw(t, rawAddr)
		equalParts(t, p, got, replay(t, raw, script))
		if c.RoundTrips() != raw.frames {
			t.Fatalf("%s: client sent %d frames, a window-unaware client %d", p, c.RoundTrips(), raw.frames)
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
