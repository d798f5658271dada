package server_test

import (
	"bufio"
	"bytes"
	"net"
	"testing"
	"time"

	"mix/internal/server"
	"mix/internal/trace"
	"mix/internal/vxdp"
)

// rawConn speaks VXDP frame by frame, keeping every field of each
// response: a client that sends root after open, as clients did before
// the open answered the root.
type rawConn struct {
	t *testing.T
	r *bufio.Reader
	w *bufio.Writer
}

func dialRawConn(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{t: t, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}
}

func (c *rawConn) do(req vxdp.Request) vxdp.Response {
	c.t.Helper()
	if err := vxdp.WriteRequest(c.w, &req); err != nil || c.w.Flush() != nil {
		c.t.Fatal(err)
	}
	var resp vxdp.Response
	if err := vxdp.ReadResponse(c.r, &resp); err != nil || resp.Err != "" {
		c.t.Fatalf("%s: %v %s", req.Op, err, resp.Err)
	}
	return resp
}

// answerBytes encodes a response as it went out, less its handle.
func answerBytes(t *testing.T, resp vxdp.Response) []byte {
	t.Helper()
	resp.ID = 0
	var b bytes.Buffer
	if err := vxdp.WriteFrame(&b, resp); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// rootSpans counts the spans of root commands in a forest: the
// client's and the server's, not the sources' root navigations under
// other commands.
func rootSpans(roots []*trace.Span) int {
	return countSpans(roots, func(sp *trace.Span) bool {
		return sp.Label == trace.ClientLabel && sp.Op == vxdp.OpRoot
	})
}

// TestOpenAnswersRoot: an open answers the view's root as a root
// command would — its handle and, on a complete view, its window — on
// a single node and through a proxy, so Root after Open costs no round
// trip; a root command after the open gets the same answer under a
// fresh handle; and a traced open returns the root's spans itself,
// leaving none for a later command to pick up.
func TestOpenAnswersRoot(t *testing.T) {
	t.Run("complete view", func(t *testing.T) {
		addr, _, _ := winStart(t, winHomes())
		c := dialOpen(t, addr)
		first := firstChild(t, c)
		if _, err := c.Fetch(first); err != nil {
			t.Fatal(err)
		}
		if n := c.RoundTrips(); n != 1 {
			t.Fatalf("open, root, down and fetch took %d frames, want 1", n)
		}
	})

	t.Run("incomplete view", func(t *testing.T) {
		_, addr, _ := pfStart(t, winHomes())
		resp := dialRawConn(t, addr).do(vxdp.Request{Cmd: vxdp.Cmd{Op: vxdp.OpOpen}, Query: pfQuery})
		if !resp.OK || resp.ID == 0 || len(resp.Win) != 0 {
			t.Fatalf("open of a fresh view: ok=%v id=%d, %d-node window; want a handle and no window", resp.OK, resp.ID, len(resp.Win))
		}
	})

	t.Run("root after open", func(t *testing.T) {
		for _, complete := range []bool{false, true} {
			var addr string
			if complete {
				addr, _, _ = winStart(t, winHomes())
			} else {
				_, addr, _ = pfStart(t, winHomes())
			}
			raw := dialRawConn(t, addr)
			open := raw.do(vxdp.Request{Cmd: vxdp.Cmd{Op: vxdp.OpOpen}, Query: pfQuery})
			openBytes := answerBytes(t, open)
			root := raw.do(vxdp.Request{Cmd: vxdp.Cmd{Op: vxdp.OpRoot}})
			if root.ID <= open.ID {
				t.Fatalf("complete=%v: root after open reissued handle %d (the open's was %d)", complete, root.ID, open.ID)
			}
			if got := answerBytes(t, root); !bytes.Equal(got, openBytes) {
				t.Fatalf("complete=%v: root after open answered\n%s\nthe open\n%s", complete, got, openBytes)
			}
			if complete != (len(open.Win) > 0) {
				t.Fatalf("complete=%v: the open carried a %d-node window", complete, len(open.Win))
			}
		}
	})

	t.Run("proxy", func(t *testing.T) {
		f := startFleet(t, 3, fleetFactory())
		entry, owner := nonOwner(t, f, fleetQuery)
		raw := dialRawConn(t, f.Members[entry].Addr)
		open := raw.do(vxdp.Request{Cmd: vxdp.Cmd{Op: vxdp.OpOpen}, Query: fleetQuery})
		if !open.OK || open.ID != 1 {
			t.Fatalf("proxied open: ok=%v id=%d, want the owner's first handle", open.OK, open.ID)
		}
		if l := raw.do(vxdp.Request{Cmd: vxdp.Cmd{Op: vxdp.OpFetch, ID: open.ID}}).Label; l != "out" {
			t.Fatalf("the open's handle names %q, want the answer root", l)
		}
		if n := f.Members[entry].Server.Stats().Root; n != 0 {
			t.Fatalf("entry answered %d roots, want none", n)
		}
		if got := f.Members[owner].Server.Stats().Root; got != 1 {
			t.Fatalf("owner answered %d roots, want the open's 1", got)
		}
	})

	// traced checks a traced session on addr: the open's forest holds
	// the root's server span, Root is free, and the first down's holds
	// no root span.
	traced := func(t *testing.T, addr, query string) {
		c, err := vxdp.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rec := trace.New()
		c.SetTracer(rec)
		if err := c.Open(query); err != nil {
			t.Fatal(err)
		}
		opened := rec.Take()
		if len(opened) != 1 || opened[0].Op != vxdp.OpOpen || rootSpans(opened) != 1 {
			t.Fatalf("open's forest holds no root span, or not only under the open:\n%s", trace.Format(opened))
		}
		root, err := c.Root()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Down(root); err != nil {
			t.Fatal(err)
		}
		down := rec.Take()
		if len(down) != 1 || down[0].Op != vxdp.OpDown || rootSpans(down) != 0 {
			t.Fatalf("first down's forest, want one down and no root span:\n%s", trace.Format(down))
		}
	}
	t.Run("traced", func(t *testing.T) {
		_, addr, _ := pfStart(t, winHomes(), server.WithTrace(true))
		traced(t, addr, pfQuery)
	})
	t.Run("traced proxy", func(t *testing.T) {
		f := startFleet(t, 3, fleetFactory())
		entry, _ := nonOwner(t, f, fleetQuery)
		traced(t, f.Members[entry].Addr, fleetQuery)
	})

	// A traced open the owner refuses is served locally; its forest keeps
	// the refused hop's proxy span beside the local root's span.
	t.Run("traced refused proxy", func(t *testing.T) {
		f := startFleet(t, 3, fleetFactory(), server.WithMaxSessions(1))
		entry, owner := nonOwner(t, f, fleetQuery)
		blocker, err := net.Dial("tcp", f.Members[owner].Addr) // the owner's one session
		if err != nil {
			t.Fatal(err)
		}
		defer blocker.Close()
		deadline := time.Now().Add(5 * time.Second)
		for f.Members[owner].Server.Stats().SessionsActive < 1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		c, err := vxdp.Dial(f.Members[entry].Addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rec := trace.New()
		c.SetTracer(rec)
		if err := c.Open(fleetQuery); err != nil {
			t.Fatal(err)
		}
		if st := f.Members[entry].Node.Stats(); st.Degraded != 1 {
			t.Fatalf("the refused open was not served degraded: %+v", st)
		}
		opened := rec.Take()
		hops := countSpans(opened, func(sp *trace.Span) bool {
			return sp.Label == trace.ProxyLabel && sp.Op == vxdp.OpOpen
		})
		if len(opened) != 1 || opened[0].Op != vxdp.OpOpen || hops != 1 || rootSpans(opened) != 1 {
			t.Fatalf("refused open's forest, want the open over its hop and the local root:\n%s", trace.Format(opened))
		}
	})

	// An untraced client on a tracing fleet fetches the entry node's
	// forest: the open's hop holds the root, the down's hop none.
	t.Run("untraced proxy", func(t *testing.T) {
		f := startFleet(t, 3, fleetFactory())
		entry, _ := nonOwner(t, f, fleetQuery)
		c, err := vxdp.Dial(f.Members[entry].Addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Open(fleetQuery); err != nil {
			t.Fatal(err)
		}
		root, err := c.Root()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Down(root); err != nil {
			t.Fatal(err)
		}
		forest, err := c.Trace()
		if err != nil {
			t.Fatal(err)
		}
		if len(forest) != 2 || forest[0].Op != vxdp.OpOpen || forest[1].Op != vxdp.OpDown ||
			rootSpans(forest[:1]) != 1 || rootSpans(forest[1:]) != 0 {
			t.Fatalf("entry's forest, want the open's hop over the root and the down's over none:\n%s", trace.Format(forest))
		}
	})
}
