package mix_test

// End-to-end tests of the networked mediator: an in-process mixd
// (internal/server) on a loopback listener, navigated by vxdp.Clients.
// The acceptance bar of the subsystem: remote exploration is
// byte-identical to in-process lazy evaluation on the query corpus,
// concurrent sessions stay independent, and idle sessions are evicted
// — all under -race.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mix/internal/mediator"
	"mix/internal/nav"
	"mix/internal/regioncache"
	"mix/internal/server"
	"mix/internal/vxdp"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

// The homes⋈schools view of the running example, defined server-side;
// clients query the view like a source.
const homesSchoolsViewDef = `
CONSTRUCT <allhomes> <med_home> $H $S {$S} </med_home> {$H} </allhomes> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2`

// queryCorpus is the exploration corpus: the E2-style homes⋈schools
// join (direct and through the view) and E1-style selection /
// concatenation / reorder shapes over the same sources.
var queryCorpus = []struct{ name, q string }{
	{"join", `
CONSTRUCT <answer> <med_home> $H $S {$S} </med_home> {$H} </answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2`},
	{"view", `
CONSTRUCT <out> $M {$M} </out> {}
WHERE homeview allhomes.med_home $M`},
	{"selection", `
CONSTRUCT <zips> $Z {$Z} </zips> {}
WHERE homesSrc homes.home $H AND $H zip._ $Z`},
	{"filter", `
CONSTRUCT <cheap> $H {$H} </cheap> {}
WHERE homesSrc homes.home $H AND $H zip._ $Z
AND schoolsSrc schools.school $S AND $S zip._ $W
AND $Z = $W AND $Z = "91000"`},
	{"reorder", `
CONSTRUCT <sorted> $H {$H} </sorted> {}
WHERE homesSrc homes.home $H AND $H price._ $P
ORDERBY $P`},
}

func mixdFactory() server.Factory {
	homes, schools := workload.HomesSchools(25, 25, 6, 13)
	return func(rc *regioncache.Cache) (*mediator.Mediator, error) {
		m := mediator.New(mediator.DefaultOptions())
		m.SetRegionCache(rc)
		m.RegisterTree("homesSrc", homes)
		m.RegisterTree("schoolsSrc", schools)
		if err := m.DefineView("homeview", homesSchoolsViewDef); err != nil {
			return nil, err
		}
		return m, nil
	}
}

// startMixd runs the daemon in-process on a loopback listener.
func startMixd(t *testing.T, opts ...server.Option) (*server.Server, string) {
	t.Helper()
	f := startCluster(t, 1, "", opts...)
	return f.Members[0].Server, f.Members[0].Addr
}

// TestRemoteCorpusByteIdentical: for every corpus query, full remote
// exploration is byte-identical to in-process lazy evaluation.
func TestRemoteCorpusByteIdentical(t *testing.T) {
	_, addr := startMixd(t)
	factory := mixdFactory()
	for _, tc := range queryCorpus {
		t.Run(tc.name, func(t *testing.T) {
			local, err := factory(nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := local.Query(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			wantTree, err := res.Materialize()
			if err != nil {
				t.Fatal(err)
			}
			want := xmltree.MarshalXML(wantTree)

			c, err := vxdp.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Open(tc.q); err != nil {
				t.Fatal(err)
			}
			gotTree, err := nav.Materialize(c)
			if err != nil {
				t.Fatal(err)
			}
			if got := xmltree.MarshalXML(gotTree); got != want {
				t.Fatalf("remote ≠ in-process\nremote: %s\nlocal:  %s", got, want)
			}
		})
	}
}

// TestMixdTwentyConcurrentSessions is the acceptance stress test: ≥20
// concurrent client sessions navigate the homes⋈schools view — some
// materializing everything, some exploring a prefix, some scanning
// labels — and every fully explored answer is byte-identical
// to in-process lazy evaluation.
func TestMixdTwentyConcurrentSessions(t *testing.T) {
	srv, addr := startMixd(t, server.WithMaxSessions(64))

	local, err := mixdFactory()(nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := local.Query(queryCorpus[1].q) // over the view
	if err != nil {
		t.Fatal(err)
	}
	wantTree, err := res.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	want := xmltree.MarshalXML(wantTree)
	wantFirst := len(wantTree.Children)

	const sessions = 24
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fail := func(err error) { errs <- fmt.Errorf("session %d: %w", i, err) }
			c, err := vxdp.Dial(addr)
			if err != nil {
				fail(err)
				return
			}
			defer c.Close()
			if err := c.Open(queryCorpus[1].q); err != nil {
				fail(err)
				return
			}
			switch i % 3 {
			case 0: // full exploration — byte-identical
				got, err := nav.Materialize(c)
				if err != nil {
					fail(err)
					return
				}
				if xmltree.MarshalXML(got) != want {
					fail(fmt.Errorf("remote answer differs"))
				}
			case 1: // partial exploration — prefix of the answer
				k := 1 + i%4
				got, err := nav.ExploreFirst(c, k)
				if err != nil {
					fail(err)
					return
				}
				n := len(got.Children)
				if n > 0 && got.Children[n-1].IsHole() {
					n--
				}
				for j := 0; j < n; j++ {
					if !xmltree.Equal(got.Children[j], wantTree.Children[j]) {
						fail(fmt.Errorf("child %d differs under partial exploration", j))
						return
					}
				}
			case 2: // label scan, one command per message
				labels, err := nav.Labels(c, wantFirst)
				if err != nil {
					fail(err)
					return
				}
				if len(labels) != wantFirst {
					fail(fmt.Errorf("label scan saw %d labels, want %d", len(labels), wantFirst))
					return
				}
				for j, l := range labels {
					if l != wantTree.Children[j].Label {
						fail(fmt.Errorf("label %d = %q, want %q", j, l, wantTree.Children[j].Label))
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.SessionsTotal < sessions {
		t.Fatalf("sessions total = %d, want ≥ %d", st.SessionsTotal, sessions)
	}
	if st.Navs == 0 {
		t.Fatal("no navigations counted")
	}
}

// TestMixdIdleEviction: a session that stops navigating is evicted
// after the configured idle timeout while an active one survives.
func TestMixdIdleEviction(t *testing.T) {
	srv, addr := startMixd(t, server.WithIdleTimeout(100*time.Millisecond))

	idle, err := vxdp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if err := idle.Open(queryCorpus[0].q); err != nil {
		t.Fatal(err)
	}
	busy, err := vxdp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	if err := busy.Open(queryCorpus[0].q); err != nil {
		t.Fatal(err)
	}

	// Keep one session busy well past the idle window; the other one
	// goes quiet and must be evicted.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := busy.Ping(); err != nil { // Root would answer from the open
			t.Fatalf("busy session died: %v", err)
		}
		st := srv.Stats()
		if st.SessionsEvicted >= 1 && st.SessionsActive == 1 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	st := srv.Stats()
	if st.SessionsEvicted == 0 || st.SessionsActive != 1 {
		t.Fatalf("idle session not evicted: %+v", st)
	}
	if _, err := idle.Ping(); err == nil {
		t.Fatal("evicted session still answering")
	}
}
