package lxp

import (
	"net"
	"strings"
	"testing"

	"mix/internal/xmltree"
)

// plainServer hides a BatchServer's FillMany, modeling a wrapper that
// predates the fill_many message.
type plainServer struct{ inner Server }

func (p plainServer) GetRoot(uri string) (string, error)      { return p.inner.GetRoot(uri) }
func (p plainServer) Fill(id string) ([]*xmltree.Tree, error) { return p.inner.Fill(id) }

// rootHoles chases fills from the root of srv until one fill reveals
// several sibling holes (the per-book holes plus the continuation
// hole) and returns them — the ids a batched fill_many would carry.
func rootHoles(t *testing.T, srv Server) []string {
	t.Helper()
	id, err := srv.GetRoot("u")
	if err != nil {
		t.Fatal(err)
	}
	queue := []string{id}
	for len(queue) > 0 {
		next := queue[0]
		queue = queue[1:]
		trees, err := srv.Fill(next)
		if err != nil {
			t.Fatal(err)
		}
		var holes []string
		for _, tr := range trees {
			holes = append(holes, tr.Holes()...)
		}
		if len(holes) >= 2 {
			return holes
		}
		queue = append(queue, holes...)
	}
	t.Fatal("no fill revealed several holes to batch")
	return nil
}

// TestFillManyHelperFallback: the package helper answers identically
// whether the backend batches natively or is filled hole by hole.
func TestFillManyHelperFallback(t *testing.T) {
	mk := func() *TreeServer { return &TreeServer{Tree: doc(), Chunk: 2, InlineLimit: 2} }
	holes := rootHoles(t, mk())
	native, err := FillMany(mk(), holes)
	if err != nil {
		t.Fatal(err)
	}
	fallback, err := FillMany(plainServer{mk()}, holes)
	if err != nil {
		t.Fatal(err)
	}
	if len(native) != len(fallback) {
		t.Fatalf("native filled %d holes, fallback %d", len(native), len(fallback))
	}
	for id, trees := range native {
		other := fallback[id]
		if len(trees) != len(other) {
			t.Fatalf("hole %q: %d vs %d trees", id, len(trees), len(other))
		}
		for i := range trees {
			if !xmltree.Equal(trees[i], other[i]) {
				t.Fatalf("hole %q tree %d differs: %v vs %v", id, i, trees[i], other[i])
			}
		}
		if err := ValidateFill(id, trees); err != nil {
			t.Fatalf("hole %q: batched fill violates the protocol: %v", id, err)
		}
	}
}

// TestWireFillMany: a whole batch crosses the wire in one fill_many
// frame and matches the per-hole fills of the same server.
func TestWireFillMany(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv := &TreeServer{Tree: doc(), Chunk: 2, InlineLimit: 2}
	go NewTCPServer(srv).Serve(l)

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	holes := rootHoles(t, c)
	got, err := c.FillMany(holes)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range holes {
		want, err := srv.Fill(id) // TreeServer fills are stateless
		if err != nil {
			t.Fatal(err)
		}
		trees := got[id]
		if len(trees) != len(want) {
			t.Fatalf("hole %q: %d trees over the wire, want %d", id, len(trees), len(want))
		}
		for i := range want {
			if !xmltree.Equal(trees[i], want[i]) {
				t.Fatalf("hole %q tree %d differs after the round trip", id, i)
			}
		}
	}
	// A stale id fails the whole batch with a remote error; the
	// connection survives.
	if _, err := c.FillMany([]string{"bogus"}); err == nil || !strings.Contains(err.Error(), "remote") {
		t.Fatalf("expected remote error, got %v", err)
	}
	if _, err := c.GetRoot("u"); err != nil {
		t.Fatalf("connection should survive a failed batch: %v", err)
	}
}

// TestCountingFillMany: one batched round trip counts one message and
// len(ids) fills; through a non-batching inner it degrades to counted
// per-hole fills, so the counters always reflect the real wire traffic.
func TestCountingFillMany(t *testing.T) {
	batched := NewCounting(&TreeServer{Tree: doc(), Chunk: 2, InlineLimit: 2})
	holes := rootHoles(t, &TreeServer{Tree: doc(), Chunk: 2, InlineLimit: 2})
	before := batched.Counters.Snapshot()
	if _, err := FillMany(batched, holes); err != nil {
		t.Fatal(err)
	}
	after := batched.Counters.Snapshot()
	if got := after.Msgs - before.Msgs; got != 1 {
		t.Fatalf("batched FillMany cost %d messages, want 1", got)
	}
	if got := after.Fills - before.Fills; got != int64(len(holes)) {
		t.Fatalf("batched FillMany counted %d fills, want %d", got, len(holes))
	}
	if after.Bytes <= before.Bytes {
		t.Fatal("batched FillMany accounted no bytes")
	}

	plain := NewCounting(plainServer{&TreeServer{Tree: doc(), Chunk: 2, InlineLimit: 2}})
	before = plain.Counters.Snapshot()
	if _, err := FillMany(plain, holes); err != nil {
		t.Fatal(err)
	}
	after = plain.Counters.Snapshot()
	if got := after.Msgs - before.Msgs; got != int64(len(holes)) {
		t.Fatalf("per-hole fallback cost %d messages, want %d", got, len(holes))
	}
}

// FuzzFillMany: for arbitrary hole ids, the batched fill must agree
// with per-hole fills — same trees, same per-hole ValidateFill verdict,
// and errors exactly when some per-hole fill errors.
func FuzzFillMany(f *testing.F) {
	f.Add("root", "0:0")
	f.Add("0:0", "0:2")
	f.Add("bogus", "root")
	f.Add("", "9999:0")
	f.Fuzz(func(t *testing.T, a, b string) {
		srv := &TreeServer{Tree: doc(), Chunk: 2, InlineLimit: 2}
		ids := []string{a, b}
		many, manyErr := srv.FillMany(ids)
		var singleErr error
		for _, id := range ids {
			if _, err := srv.Fill(id); err != nil {
				singleErr = err
				break
			}
		}
		if (manyErr == nil) != (singleErr == nil) {
			t.Fatalf("FillMany(%q) err = %v, per-hole err = %v", ids, manyErr, singleErr)
		}
		if manyErr != nil {
			return
		}
		for _, id := range ids {
			single, err := srv.Fill(id)
			if err != nil {
				t.Fatalf("fill %q succeeded in the batch but not alone: %v", id, err)
			}
			trees := many[id]
			if len(trees) != len(single) {
				t.Fatalf("hole %q: %d batched vs %d single trees", id, len(trees), len(single))
			}
			for i := range single {
				if !xmltree.Equal(trees[i], single[i]) {
					t.Fatalf("hole %q tree %d differs between batch and single fill", id, i)
				}
			}
			ve1, ve2 := ValidateFill(id, trees), ValidateFill(id, single)
			if (ve1 == nil) != (ve2 == nil) {
				t.Fatalf("hole %q: ValidateFill disagrees: %v vs %v", id, ve1, ve2)
			}
		}
	})
}
