package server_test

// Exact round trips per persona session (DESIGN.md §15, §16): a fixed
// replay over an in-memory pipe of counts is a count, so it is pinned
// exactly, not measured.

import (
	"fmt"
	"testing"

	"mix/internal/buffer"
	"mix/internal/lxp"
	"mix/internal/mediator"
	"mix/internal/regioncache"
	"mix/internal/server"
	"mix/internal/vxdp"
	"mix/internal/workload"
)

// rtSeeds are the script seeds of TestPersonaRoundTrips, by persona.
var rtSeeds = map[string]int64{"deep-drill": 1, "glance": 5, "select-heavy": 3}

// rtSession opens query in a fresh session on addr, replays script,
// checks every step against want and returns the session's round
// trips, the open included.
func rtSession(t *testing.T, addr, query string, script []workload.Step, want []string) int64 {
	t.Helper()
	c, err := vxdp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Open(query); err != nil {
		t.Fatal(err)
	}
	err = workload.ReplayPersona(c, script, func(i int, ex string) error {
		if ex != want[i] {
			return fmt.Errorf("step %d explored:\n got %s\nwant %s", i, ex, want[i])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return c.RoundTrips()
}

// lxpHomesFactory registers homes as the LXP source homesSrc behind a
// buffer whose scan lookahead is off, so its fills depend on nothing
// but the navigations; w counts the wrapper's messages and bufs
// collects every buffer built.
func lxpHomesFactory(w *lxp.Counting, bufs *[]*buffer.Buffer) server.Factory {
	return func(rc *regioncache.Cache) (*mediator.Mediator, error) {
		m := mediator.New(mediator.DefaultOptions())
		m.SetRegionCache(rc)
		b, err := buffer.New(w, "homes")
		if err != nil {
			return nil, err
		}
		m.RegisterSource("homesSrc", b)
		*bufs = append(*bufs, b)
		return m, nil
	}
}

// TestPersonaRoundTrips pins the round trips of one session per persona
// (seeds rtSeeds) with prefetch on, each on a view it meets fresh: the
// join+groupBy view over in-memory sources, where rights derive ahead
// and windows ship the region tops the entry knows as leaves; and a
// one-source view over an LXP buffer with its lookahead off, where
// rights never derive ahead, so the buffer's fills and the wrapper's
// messages are pinned too. Each LXP session has a server of its own.
func TestPersonaRoundTrips(t *testing.T) {
	type pin struct{ trips, fills, msgs int64 }
	// Before windows shipped leaves and rights derived ahead, both views
	// read 37, 20 and 69 round trips. Before the root fill carried the
	// root's first-child spine, each LXP session paid two fills and two
	// messages more: the root's first chunk and the first home's.
	want := map[string]map[string]pin{
		"fresh join": {
			"deep-drill":   {trips: 28},
			"glance":       {trips: 12},
			"select-heavy": {trips: 34},
		},
		"lxp": {
			"deep-drill":   {trips: 37, fills: 27, msgs: 28},
			"glance":       {trips: 20, fills: 24, msgs: 25},
			"select-heavy": {trips: 41, fills: 22, msgs: 23},
		},
	}
	got := map[string]map[string]pin{"fresh join": {}, "lxp": {}}

	scripts := map[string][]workload.Step{}
	for _, p := range personas {
		scripts[p] = workload.PersonaScript(p, pfRegions, rtSeeds[p])
	}

	homes, schools, _ := pfJoinSources(t, nil)
	_, addr, _ := pfStartWith(t, pfJoinFactory(homes, schools), server.WithPrefetch(true))
	for i, p := range personas {
		_, _, oracle := pfJoinSources(t, scripts[p])
		got["fresh join"][p] = pin{trips: rtSession(t, addr, pfFreshJoin(i+1), scripts[p], oracle)}
	}

	lxpHomes := pfHomes()
	for i, p := range personas {
		w := lxp.NewCounting(&lxp.TreeServer{Tree: lxpHomes, Chunk: 2, InlineLimit: 4})
		var bufs []*buffer.Buffer
		_, addr := serve(t, lxpHomesFactory(w, &bufs), server.WithPrefetch(true))
		trips := rtSession(t, addr, pfFreshHomes(i), scripts[p], pfOracle(t, lxpHomes, scripts[p]))
		var fills int64
		for _, b := range bufs {
			fills += int64(b.Stats().Fills)
		}
		got["lxp"][p] = pin{trips: trips, fills: fills, msgs: w.Counters.Msgs.Load()}
	}

	for _, view := range []string{"fresh join", "lxp"} {
		for _, p := range personas {
			t.Logf("%-10s %-12s %+v", view, p, got[view][p])
			if got[view][p] != want[view][p] {
				t.Errorf("%s, %s: %+v, want %+v", view, p, got[view][p], want[view][p])
			}
		}
	}
}
