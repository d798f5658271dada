package fleet_test

import (
	"runtime"
	"testing"
	"time"

	"mix/internal/cluster"
	"mix/internal/fleet"
	"mix/internal/mediator"
	"mix/internal/nav"
	"mix/internal/regioncache"
	"mix/internal/server"
	"mix/internal/vxdp"
	"mix/internal/workload"
)

var queries = []string{
	`CONSTRUCT <homes> $H {$H} </homes> {} WHERE homesSrc homes.home $H`,
	`CONSTRUCT <schools> $S {$S} </schools> {} WHERE schoolsSrc schools.school $S`,
	`CONSTRUCT <homes> $H {$H} </homes> {} WHERE homesSrc homes.home $H AND $H zip._ $Z AND $Z = "91"`,
	`CONSTRUCT <pairs> <pair> $H $S {$S} </pair> {$H} </pairs> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2`,
}

func member(int) (server.Factory, []server.Option) {
	homes, schools := workload.HomesSchools(8, 8, 3, 5)
	return func(rc *regioncache.Cache) (*mediator.Mediator, error) {
		m := mediator.New(mediator.DefaultOptions())
		m.SetRegionCache(rc)
		m.RegisterTree("homesSrc", homes)
		m.RegisterTree("schoolsSrc", schools)
		return m, nil
	}, nil
}

func start(t *testing.T, n int, tmpl cluster.Config) *fleet.Fleet {
	t.Helper()
	f, err := fleet.Start(n, tmpl, member)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	return f
}

// TestStartCloseLeavesNoGoroutines: a standalone member and a 3-node
// proxy fleet whose control and proxy links have carried traffic close
// down to the goroutines that ran before they booted.
func TestStartCloseLeavesNoGoroutines(t *testing.T) {
	for _, n := range []int{1, 3} {
		base := runtime.NumGoroutine()
		f := start(t, n, cluster.Config{HealthInterval: 10 * time.Millisecond})
		if (f.Members[0].Node != nil) != (n > 1) {
			t.Fatalf("%d-member fleet: node %v", n, f.Members[0].Node)
		}
		for _, m := range f.Members {
			c, err := vxdp.Dial(m.Addr)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				if err := c.Open(q); err != nil {
					t.Fatal(err)
				}
				if _, err := nav.Materialize(c); err != nil {
					t.Fatal(err)
				}
			}
			c.Close()
		}
		time.Sleep(50 * time.Millisecond) // a few health rounds over the control links
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d-member fleet left %d goroutines over %d:\n%s",
					n, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
			}
		}
	}
}

// TestOwnerMatchesRing: Owner names the member every node's ring names,
// and a one-member fleet owns every key.
func TestOwnerMatchesRing(t *testing.T) {
	f := start(t, 3, cluster.Config{HealthInterval: time.Hour, FlushInterval: -1})
	solo := start(t, 1, cluster.Config{})
	factory, _ := member(0)
	med, err := factory(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		i, err := f.Owner(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := med.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		for j, m := range f.Members {
			if got := m.Node.Owner(res.CacheKey()); got != f.Members[i].Addr {
				t.Fatalf("member %d's ring owns %q at %s, Owner says member %d", j, q, got, i)
			}
		}
		if i, err := solo.Owner(q); err != nil || i != 0 {
			t.Fatalf("one-member Owner = %d, %v; want 0", i, err)
		}
	}
}

// TestStopLooksDown: a stopped member is marked down by its peers'
// health checks, and stopping it again does nothing.
func TestStopLooksDown(t *testing.T) {
	f := start(t, 3, cluster.Config{HealthInterval: 10 * time.Millisecond, FailAfter: 1})
	dead := f.Members[1].Addr
	if err := f.Stop(1); err != nil {
		t.Fatal(err)
	}
	if err := f.Stop(1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, i := range []int{0, 2} {
		for f.Members[i].Node.Alive(dead) {
			if time.Now().After(deadline) {
				t.Fatalf("member %d still sees the stopped member up", i)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}
