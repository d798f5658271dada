package experiments

import (
	"time"

	"mix/internal/cluster"
	"mix/internal/fleet"
	"mix/internal/mediator"
	"mix/internal/metrics"
	"mix/internal/nav"
	"mix/internal/regioncache"
	"mix/internal/server"
	"mix/internal/trace"
	"mix/internal/vxdp"
	"mix/internal/xmltree"
)

// homeviewDef is the running example's view: every home with the
// schools in its zip code. homeviewQuery lists its med_home elements.
const (
	homeviewDef = `
CONSTRUCT <allhomes>
  <med_home> $H $S {$S} </med_home> {$H}
</allhomes> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
AND schoolsSrc schools.school $S AND $S zip._ $V2
AND $V1 = $V2
`
	homeviewQuery = `
CONSTRUCT <out> $M {$M} </out> {}
WHERE homeview allhomes.med_home $M`
)

// countingFactory builds engines over homes as homesSrc and, when
// schools is non-nil, schools as schoolsSrc with homeview defined. Every
// engine counts its source navigations into src, so a counter shared by
// a fleet's members totals the whole fleet.
func countingFactory(src *metrics.Counters, homes, schools *xmltree.Tree) server.Factory {
	return func(rc *regioncache.Cache) (*mediator.Mediator, error) {
		m := mediator.New(mediator.DefaultOptions())
		m.SetRegionCache(rc)
		m.RegisterSource("homesSrc", &nav.CountingDoc{Doc: nav.NewTreeDoc(homes), Counters: src})
		if schools == nil {
			return m, nil
		}
		m.RegisterSource("schoolsSrc", &nav.CountingDoc{Doc: nav.NewTreeDoc(schools), Counters: src})
		if err := m.DefineView("homeview", homeviewDef); err != nil {
			return nil, err
		}
		return m, nil
	}
}

// bootFleet starts an n-member loopback fleet in the given routing mode
// with the background health and flush timers off, so every counter is
// deterministic. A one-member fleet is a standalone server with a region
// cache of its own.
func bootFleet(n int, mode cluster.Mode, member func(i int) (server.Factory, []server.Option)) *fleet.Fleet {
	f, err := fleet.Start(n, cluster.Config{Mode: mode, HealthInterval: time.Hour, FlushInterval: -1},
		func(i int) (server.Factory, []server.Option) {
			factory, opts := member(i)
			if n == 1 {
				opts = append(opts, server.WithRegionCache(regioncache.New(0)))
			}
			return factory, opts
		})
	if err != nil {
		panic(err)
	}
	return f
}

// owner is fleet.Owner for tables, which have no error path.
func owner(f *fleet.Fleet, query string) int {
	i, err := f.Owner(query)
	if err != nil {
		panic(err)
	}
	return i
}

// remoteAnswer materializes query through a VXDP session with the
// member at addr, traced into rec when it is non-nil, and returns the
// client commands the session issued and the answer.
func remoteAnswer(addr, query string, rec *trace.Recorder) (client int64, answer string) {
	c, err := vxdp.Dial(addr)
	if err != nil {
		panic(err)
	}
	defer c.Close()
	if rec != nil {
		c.SetTracer(rec)
	}
	if err := c.Open(query); err != nil {
		panic(err)
	}
	cd := nav.NewCountingDoc(c)
	tree, err := nav.Materialize(cd)
	if err != nil {
		panic(err)
	}
	return cd.Counters.Navigations(), xmltree.MarshalXML(tree)
}
