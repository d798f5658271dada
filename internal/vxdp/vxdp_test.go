package vxdp_test

// Client/protocol tests against a live in-process server (the server
// package is the only VXDP speaker, so the protocol is exercised
// end-to-end over a loopback listener).

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"

	"mix/internal/cluster"
	"mix/internal/fleet"
	"mix/internal/mediator"
	"mix/internal/nav"
	"mix/internal/regioncache"
	"mix/internal/server"
	"mix/internal/vxdp"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

const joinQuery = `
CONSTRUCT <answer> <med_home> $H $S {$S} </med_home> {$H} </answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2`

// startServer runs a mixd instance over the homes/schools workload on a
// loopback listener and returns its address.
func startServer(t *testing.T, opts ...server.Option) (*server.Server, string) {
	t.Helper()
	homes, schools := workload.HomesSchools(12, 12, 4, 7)
	factory := func(rc *regioncache.Cache) (*mediator.Mediator, error) {
		m := mediator.New(mediator.DefaultOptions())
		m.SetRegionCache(rc)
		m.RegisterTree("homesSrc", homes)
		m.RegisterTree("schoolsSrc", schools)
		return m, nil
	}
	f, err := fleet.Start(1, cluster.Config{}, func(int) (server.Factory, []server.Option) { return factory, opts })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	return f.Members[0].Server, f.Members[0].Addr
}

func dialOpen(t *testing.T, addr, query string) *vxdp.Client {
	t.Helper()
	c, err := vxdp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Open(query); err != nil {
		t.Fatal(err)
	}
	return c
}

// localAnswer evaluates the query in-process for comparison.
func localAnswer(t *testing.T, query string) *xmltree.Tree {
	t.Helper()
	homes, schools := workload.HomesSchools(12, 12, 4, 7)
	m := mediator.New(mediator.DefaultOptions())
	m.RegisterTree("homesSrc", homes)
	m.RegisterTree("schoolsSrc", schools)
	res, err := m.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func TestRemoteNavigationEqualsLocal(t *testing.T) {
	_, addr := startServer(t)
	c := dialOpen(t, addr, joinQuery)
	got, err := nav.Materialize(c)
	if err != nil {
		t.Fatal(err)
	}
	want := localAnswer(t, joinQuery)
	if xmltree.MarshalXML(got) != xmltree.MarshalXML(want) {
		t.Fatalf("remote ≠ local:\nremote: %s\nlocal:  %s",
			xmltree.MarshalXML(got), xmltree.MarshalXML(want))
	}
}

func TestClientIsADocument(t *testing.T) {
	// The mediator.Element veneer and the exploration helpers must work
	// over the wire unchanged.
	_, addr := startServer(t)
	c := dialOpen(t, addr, joinQuery)
	root, err := mediator.Wrap(c)
	if err != nil {
		t.Fatal(err)
	}
	name, err := root.Name()
	if err != nil {
		t.Fatal(err)
	}
	if name != "answer" {
		t.Fatalf("root = %q, want answer", name)
	}
	first, err := root.FirstChild()
	if err != nil {
		t.Fatal(err)
	}
	if first == nil {
		t.Fatal("answer has no children")
	}
	partial, err := nav.ExploreFirst(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := localAnswer(t, joinQuery)
	if len(want.Children) > 2 {
		n := len(partial.Children)
		if n == 0 || !partial.Children[n-1].IsHole() {
			t.Fatalf("partial exploration should end in a hole: %s", xmltree.MarshalXML(partial))
		}
	}
}

func TestSelectLabelAndPath(t *testing.T) {
	_, addr := startServer(t)
	c := dialOpen(t, addr, joinQuery)
	// nav.Path uses nav.Select, which falls back to an r/f scan over
	// the wire; SelectLabel does it in one round trip. Both must agree.
	p, err := nav.Path(c, "med_home", "home", "zip")
	if err != nil {
		t.Fatal(err)
	}
	if p == nil {
		t.Fatal("path answer.med_home.home.zip not found")
	}
	root, err := c.Root()
	if err != nil {
		t.Fatal(err)
	}
	ch, err := c.Down(root)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := c.SelectLabel(ch, "med_home", true)
	if err != nil {
		t.Fatal(err)
	}
	if sel == nil {
		t.Fatal("SelectLabel(med_home) = ⊥")
	}
	l, err := c.Fetch(sel)
	if err != nil {
		t.Fatal(err)
	}
	if l != "med_home" {
		t.Fatalf("selected label = %q", l)
	}
	// A label that never occurs: ⊥, not an error.
	none, err := c.SelectLabel(ch, "nosuch", true)
	if err != nil {
		t.Fatal(err)
	}
	if none != nil {
		t.Fatal("SelectLabel(nosuch) found a node")
	}
}

func TestForeignIDRejected(t *testing.T) {
	_, addr := startServer(t)
	c1 := dialOpen(t, addr, joinQuery)
	c2 := dialOpen(t, addr, joinQuery)
	root1, err := c1.Root()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Down(root1); err == nil {
		t.Fatal("ID of one client accepted by another")
	}
	if _, err := c2.Down("bogus"); err == nil {
		t.Fatal("arbitrary ID accepted")
	}
}

func TestOpenErrors(t *testing.T) {
	_, addr := startServer(t)
	c, err := vxdp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Navigation before open: error, session stays usable.
	if _, err := c.Root(); err == nil {
		t.Fatal("root before open succeeded")
	}
	if err := c.Open("NOT XMAS"); err == nil {
		t.Fatal("malformed query accepted")
	}
	if err := c.Open("CONSTRUCT $X {} WHERE nosuchsrc a $X"); err == nil {
		t.Fatal("query over unknown source accepted")
	}
	// A good open after failures still works, and re-opening replaces
	// the session's view.
	if err := c.Open(joinQuery); err != nil {
		t.Fatal(err)
	}
	if err := c.Open(joinQuery); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Root(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsOverWire(t *testing.T) {
	srv, addr := startServer(t)
	c := dialOpen(t, addr, joinQuery)
	if _, err := nav.Materialize(c); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.SessionsActive != 1 || st.SessionsTotal != 1 {
		t.Fatalf("sessions: %+v", st)
	}
	if st.Navs == 0 || st.Down == 0 || st.Fetch == 0 {
		t.Fatalf("no navigations counted: %+v", st)
	}
	if st.Msgs == 0 {
		t.Fatalf("no messages counted: %+v", st)
	}
	// In-process snapshot agrees.
	if got := srv.Stats(); got.SessionsTotal != 1 || got.Navs < st.Navs {
		t.Fatalf("server snapshot %+v vs wire %+v", got, st)
	}
}

// TestMalformedFramesDoNotKillServer feeds hostile bytes to the
// listener; the server must stay up for well-behaved clients.
func TestMalformedFramesDoNotKillServer(t *testing.T) {
	_, addr := startServer(t)

	// Hostile length prefix (4 GiB frame).
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 0xFFFFFFF0)
	conn.Write(hdr[:])
	conn.Write(bytes.Repeat([]byte("A"), 1024))
	conn.Close()

	// Garbage JSON inside a valid frame.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("{not json")
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	conn2.Write(hdr[:])
	conn2.Write(payload)
	conn2.Close()

	// A real client still gets served.
	c := dialOpen(t, addr, joinQuery)
	if _, err := nav.Materialize(c); err != nil {
		t.Fatal(err)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	req := vxdp.Request{
		Cmd:     vxdp.Cmd{Op: vxdp.OpSelect, ID: 9, Label: "x", Self: true},
		Query:   "q",
		Proxied: true,
	}
	var buf bytes.Buffer
	if err := vxdp.WriteFrame(&buf, req); err != nil {
		t.Fatal(err)
	}
	var got vxdp.Request
	if err := vxdp.ReadFrame(&buf, &got); err != nil {
		t.Fatal(err)
	}
	if got.Op != vxdp.OpSelect || got.ID != 9 || got.Label != "x" || !got.Self ||
		got.Query != "q" || !got.Proxied {
		t.Fatalf("round trip mangled request: %+v", got)
	}
}
