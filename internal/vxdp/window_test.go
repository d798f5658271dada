package vxdp

import (
	"math"
	"testing"
	"time"

	"mix/internal/nav"
)

// shipped reports whether a link of node i decides a move inside a
// window of n nodes: ⊥, or a node strictly after i.
func shipped(i, n int, to int32) bool {
	return to == WinNone || (int(to) > i && int(to) < n)
}

// refSelect is the select a window of n nodes decides from node i, by
// the rule the client follows, walked with an explicit step bound:
// decided reports whether the window settles it, at the index of the
// landing node (-1 for ⊥).
func refSelect(win []WinNode, i int, label string, fromSelf bool) (at int, decided bool) {
	step := func(j int) (int, bool) {
		to := win[j].Right
		if !shipped(j, len(win), to) {
			return 0, false
		}
		return int(to), true
	}
	if !fromSelf {
		j, ok := step(i)
		if !ok || j == WinNone {
			return -1, ok
		}
		i = j
	}
	for range len(win) {
		if win[i].Label == label {
			return i, true
		}
		j, ok := step(i)
		if !ok || j == WinNone {
			return -1, ok
		}
		i = j
	}
	panic("refSelect: a forward walk outran its window")
}

// FuzzWindowAbsorb: a window is server input, so a hostile one must
// neither crash the client nor hang it. The fuzzer ships an arbitrary
// window with the root. Then, from every node, Down, Right, Fetch and
// SelectLabel either answer from the window exactly as its links say —
// where a link points strictly forward inside the window, or is ⊥ — or
// fall back to one round trip, whose ⊥ the fake server decides.
func FuzzWindowAbsorb(f *testing.F) {
	f.Add(uint64(100), []byte{0, 1, 0xff, 1, 0xff, 2, 2, 0xfe, 0xff})  // root, two children, the last cut
	f.Add(uint64(7), []byte{0, 0, 0, 1, 0, 1})                         // links to self
	f.Add(uint64(5), []byte{1, 2, 1, 2, 0, 0, 1, 0x80, 0x7f})          // links backwards, out of range
	f.Add(uint64(math.MaxUint64-1), []byte{0, 1, 0xff, 1, 0xff, 0xff}) // handles past the top
	f.Fuzz(func(t *testing.T, rootID uint64, data []byte) {
		data = data[:min(len(data), 3*128)]
		win := make([]WinNode, len(data)/3)
		for i := range win {
			win[i] = WinNode{
				Label: string(rune('a' + data[3*i]%3)),
				Down:  int32(int8(data[3*i+1])),
				Right: int32(int8(data[3*i+2])),
			}
		}
		c := fakeServer(t, func(req *Request) Response {
			switch req.Op {
			case OpRoot:
				return Response{NavResult: NavResult{OK: true, ID: rootID}, Win: win}
			case OpFetch:
				return Response{NavResult: NavResult{OK: true, Label: "server"}}
			}
			return Response{} // ⊥
		})
		done := make(chan struct{})
		go func() {
			defer close(done)
			checkAbsorbed(t, c, rootID, win)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("client did not answer within 10s: a window sent it round in circles")
		}
	})
}

// checkAbsorbed drives every command from every node of the window the
// root response carried; see FuzzWindowAbsorb.
func checkAbsorbed(t *testing.T, c *Client, rootID uint64, win []WinNode) {
	root, err := c.Root()
	if err != nil {
		t.Error(err)
		return
	}
	if len(win) == 0 || rootID > math.MaxUint64-uint64(len(win)) {
		// Nothing absorbed: every command is a round trip.
		before := c.RoundTrips()
		if _, err := c.Down(root); err != nil || c.RoundTrips() != before+1 {
			t.Errorf("Down without a window: %v, %d round trips", err, c.RoundTrips()-before)
		}
		return
	}
	nodes := c.wins[0].nodes
	node := func(at int) nav.ID {
		if at < 0 {
			return nil
		}
		return &nodes[at]
	}
	expect := func(what string, i int, before int64, got, want nav.ID, local bool) {
		trips := c.RoundTrips() - before
		switch {
		case local && (trips != 0 || got != want):
			t.Errorf("%s from node %d: %v after %d round trips, want %v locally", what, i, got, trips, want)
		case !local && (trips != 1 || got != nil):
			t.Errorf("%s from node %d: %v after %d round trips, want the server's ⊥ after 1", what, i, got, trips)
		}
	}
	for i := range nodes {
		id := &nodes[i]
		for _, mv := range []struct {
			what string
			to   int32
			move func(nav.ID) (nav.ID, error)
		}{{"Down", win[i].Down, c.Down}, {"Right", win[i].Right, c.Right}} {
			before := c.RoundTrips()
			got, err := mv.move(id)
			if err != nil {
				t.Errorf("%s from node %d: %v", mv.what, i, err)
				return
			}
			var want nav.ID
			if mv.to >= 0 && shipped(i, len(win), mv.to) {
				want = node(int(mv.to))
			}
			expect(mv.what, i, before, got, want, shipped(i, len(win), mv.to))
		}
		before := c.RoundTrips()
		if l, err := c.Fetch(id); err != nil || l != win[i].Label || c.RoundTrips() != before {
			t.Errorf("Fetch of node %d: %q, %v after %d round trips, want %q locally", i, l, err, c.RoundTrips()-before, win[i].Label)
		}
		for _, fromSelf := range []bool{false, true} {
			before := c.RoundTrips()
			got, err := c.SelectLabel(id, "b", fromSelf)
			if err != nil {
				t.Errorf("SelectLabel from node %d: %v", i, err)
				return
			}
			at, decided := refSelect(win, i, "b", fromSelf)
			expect("SelectLabel", i, before, got, node(at), decided)
		}
	}
}
