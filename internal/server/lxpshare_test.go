package server_test

// Shared LXP buffers behind server.New: every engine the factory builds
// over one region cache — pooled session engines and speculative drain
// engines alike — navigates one open tree per LXP source per
// generation. Answers must stay identical to an uncached replay across
// registry bumps, buffer stats summed over every built mediator must
// count each fill exactly once, and each generation pays at most one
// get_root (run with -race).

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mix/internal/lxp"
	"mix/internal/mediator"
	"mix/internal/regioncache"
	"mix/internal/server"
	"mix/internal/vxdp"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

// delayedLXP answers every request after a fixed delay, so concurrent
// engines overlap on the wire.
type delayedLXP struct {
	inner lxp.Server
	delay time.Duration
}

func (d *delayedLXP) GetRoot(uri string) (string, error) {
	time.Sleep(d.delay)
	return d.inner.GetRoot(uri)
}

func (d *delayedLXP) Fill(holeID string) ([]*xmltree.Tree, error) {
	time.Sleep(d.delay)
	return d.inner.Fill(holeID)
}

func TestSharedLXPBufferServerSessions(t *testing.T) {
	homes := pfHomes()
	counting := lxp.NewCounting(&delayedLXP{
		inner: &lxp.TreeServer{Tree: homes, Chunk: 2, InlineLimit: 4},
		delay: 200 * time.Microsecond,
	})
	var mu sync.Mutex
	var meds []*mediator.Mediator
	factory := func(rc *regioncache.Cache) (*mediator.Mediator, error) {
		m := mediator.New(mediator.DefaultOptions())
		m.SetRegionCache(rc)
		if _, err := m.RegisterLXP("homesSrc", counting, "homes"); err != nil {
			return nil, err
		}
		mu.Lock()
		meds = append(meds, m)
		mu.Unlock()
		return m, nil
	}
	srv, addr := serve(t, factory, server.WithPrefetch(true))

	personas := []string{"deep-drill", "glance", "select-heavy", "deep-drill"}
	oracles := make([][]string, len(personas))
	for i, p := range personas {
		oracles[i] = pfOracle(t, homes, workload.PersonaScript(p, pfRegions, int64(i)))
	}

	// Rounds of concurrent sessions, with a registry bump between rounds:
	// each round runs in a generation of its own.
	const rounds = 3
	for round := 0; round < rounds; round++ {
		if round > 0 {
			srv.BumpRegistry()
		}
		var wg sync.WaitGroup
		errs := make(chan error, len(personas))
		for i, p := range personas {
			wg.Add(1)
			go func(i int, p string) {
				defer wg.Done()
				c, err := vxdp.Dial(addr)
				if err != nil {
					errs <- err
					return
				}
				defer c.Close()
				if err := c.Open(pfQuery); err != nil {
					errs <- err
					return
				}
				script := workload.PersonaScript(p, pfRegions, int64(i))
				errs <- workload.ReplayPersona(c, script, func(step int, ex string) error {
					if ex != oracles[i][step] {
						return fmt.Errorf("round %d %s step %d explored:\n got %s\nwant %s", round, p, step, ex, oracles[i][step])
					}
					return nil
				})
			}(i, p)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	pfWaitIdle(t, srv)
	pfQuiesce(t, srv)

	// A lookahead fill still on the wire is counted by its buffer before
	// it reaches the wrapper; wait for the two tallies to meet.
	summed := func() int64 {
		mu.Lock()
		defer mu.Unlock()
		var n int64
		for _, m := range meds {
			for _, st := range m.BufferStats() {
				n += int64(st.Fills)
			}
		}
		return n
	}
	deadline := time.Now().Add(5 * time.Second)
	for summed() != counting.Counters.Fills.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("buffer stats summed over %d mediators report %d fills, the wrapper served %d",
				len(meds), summed(), counting.Counters.Fills.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if roots := counting.Counters.Msgs.Load() - counting.Counters.Fills.Load(); roots < 1 || roots > rounds {
		t.Fatalf("%d get_root messages over %d generations, want one per generation at most", roots, rounds)
	}
	mu.Lock()
	built := len(meds)
	mu.Unlock()
	if built <= rounds {
		t.Fatalf("the factory built %d mediators; the test needs several per generation", built)
	}
}
