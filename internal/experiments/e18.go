package experiments

import (
	"context"
	"log/slog"
	"net"
	"time"

	"mix/internal/cluster"
	"mix/internal/mediator"
	"mix/internal/metrics"
	"mix/internal/nav"
	"mix/internal/regioncache"
	"mix/internal/server"
	"mix/internal/vxdp"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

// E18SemanticCache measures the semantic region cache (DESIGN.md §14):
// a σ-restricted query opened warm against another query's fully
// explored region is answered by *filtering the cached superset* —
// zero source navigations, byte-identical answer — even though its plan
// fingerprint has never been seen before. The same open on a fresh
// node, with no superset cached, pays the full source cost. The
// clustered half routes the subsumed open through a non-owner of a
// proxy-mode fleet: the semantic tier
// short-circuits routing (the session stays on the entry node, fetching
// the complete superset region from its owner) and the whole fleet does
// zero source work.
func E18SemanticCache() Table {
	t := Table{
		ID:    "E18",
		Title: "Semantic region cache (answering subsumed queries via plan containment)",
		Claim: "A query whose plan is contained in a cached, fully explored plan of " +
			"the same view is answered from that region with zero source navigations " +
			"and a byte-identical answer, on one node and across a proxied fleet.",
		Expect: "cold superset rows pay full source navigations; warm subsumed rows " +
			"cost 0 source navigations with semantic hits > 0; the cold subsumed row " +
			"pays the sources; the fleet's subsumed open stays on the entry node " +
			"(semantic local = 1) with 0 fleet-wide source navigations; every answer " +
			"is identical to its uncached oracle.",
		Headers: []string{"session", "source navs", "semantic hits", "semantic local", "answer"},
	}
	const superQ = `CONSTRUCT <homes> $H {$H} </homes> {} WHERE homesSrc homes.home $H`
	const subQ = `CONSTRUCT <homes> $H {$H} </homes> {}
WHERE homesSrc homes.home $H AND $H price._ $P AND $P < "500000"`
	homes, _ := workload.HomesSchools(40, 1, 8, 21)

	// Uncached oracles: what each query must answer, bytes and all.
	oracle := func(q string) string {
		m := mediator.New(mediator.DefaultOptions())
		m.RegisterTree("homesSrc", homes)
		res, err := m.Query(q)
		if err != nil {
			panic(err)
		}
		tree, err := res.Materialize()
		if err != nil {
			panic(err)
		}
		return xmltree.MarshalXML(tree)
	}
	oracles := map[string]string{superQ: oracle(superQ), subQ: oracle(subQ)}

	factory := func(src *metrics.Counters) server.Factory {
		return func(rc *regioncache.Cache) (*mediator.Mediator, error) {
			m := mediator.New(mediator.DefaultOptions())
			m.SetRegionCache(rc)
			m.RegisterSource("homesSrc", &nav.CountingDoc{Doc: nav.NewTreeDoc(homes), Counters: src})
			return m, nil
		}
	}

	type member struct {
		srv  *server.Server
		node *cluster.Node // nil for the single-node halves
		addr string
		src  *metrics.Counters
		done chan error
	}
	quiet := slog.New(slog.DiscardHandler)

	// boot starts n servers on loopback; n > 1 forms a PROXY-mode
	// cluster (session routing on — the semantic short-circuit lives in
	// the routed-open path) with background timers off.
	boot := func(n int) []*member {
		listeners := make([]net.Listener, n)
		addrs := make([]string, n)
		for i := range listeners {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				panic(err)
			}
			listeners[i], addrs[i] = l, l.Addr().String()
		}
		fleet := make([]*member, n)
		for i := range fleet {
			src := &metrics.Counters{}
			rc := regioncache.New(0)
			opts := []server.Option{server.WithRegionCache(rc), server.WithLogger(quiet)}
			var node *cluster.Node
			if n > 1 {
				peers := make([]string, 0, n-1)
				for j, a := range addrs {
					if j != i {
						peers = append(peers, a)
					}
				}
				var err error
				node, err = cluster.New(cluster.Config{
					Self: addrs[i], Peers: peers, Mode: cluster.ModeProxy,
					HealthInterval: time.Hour, FlushInterval: -1, Logger: quiet,
				}, rc)
				if err != nil {
					panic(err)
				}
				opts = append(opts, server.WithCluster(node))
			}
			srv, err := server.New(factory(src), opts...)
			if err != nil {
				panic(err)
			}
			done := make(chan error, 1)
			go func(l net.Listener) { done <- srv.Serve(l) }(listeners[i])
			if node != nil {
				node.Start()
			}
			fleet[i] = &member{srv: srv, node: node, addr: addrs[i], src: src, done: done}
		}
		return fleet
	}
	halt := func(fleet []*member) {
		for _, m := range fleet {
			if m.node != nil {
				m.node.Stop()
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = m.srv.Shutdown(ctx)
			cancel()
			<-m.done
		}
	}

	// session materializes query through one node and reports the
	// fleet-wide source navigations it caused, the deltas of the entry
	// node's semantic-hit and semantic-local counters, and the answer.
	session := func(fleet []*member, entry int, query string) (source, hits, local int64, answer string) {
		fleetNavs := func() int64 {
			var n int64
			for _, m := range fleet {
				n += m.src.Navigations()
			}
			return n
		}
		entryStats := func() (int64, int64) {
			st := fleet[entry].srv.Stats()
			var h, l int64
			if st.Cache != nil {
				h = st.Cache.SemanticHits
			}
			if st.Cluster != nil {
				l = st.Cluster.SemanticLocal
			}
			return h, l
		}
		srcBefore := fleetNavs()
		hitsBefore, localBefore := entryStats()
		c, err := vxdp.Dial(fleet[entry].addr)
		if err != nil {
			panic(err)
		}
		defer c.Close()
		if err := c.Open(query); err != nil {
			panic(err)
		}
		tree, err := nav.Materialize(c)
		if err != nil {
			panic(err)
		}
		hitsAfter, localAfter := entryStats()
		return fleetNavs() - srcBefore, hitsAfter - hitsBefore, localAfter - localBefore,
			xmltree.MarshalXML(tree)
	}

	row := func(label string, fleet []*member, entry int, query string) {
		source, hits, local, answer := session(fleet, entry, query)
		verdict := "identical"
		if answer != oracles[query] {
			verdict = "DIFFERS"
		}
		t.Rows = append(t.Rows, []string{label, itoa(source), itoa(hits), itoa(local), verdict})
	}

	solo := boot(1)
	row("1 node: cold superset", solo, 0, superQ)
	row("1 node: warm subsumed (semantic)", solo, 0, subQ)
	halt(solo)

	fresh := boot(1)
	row("1 node: cold subsumed (no superset cached)", fresh, 0, subQ)
	halt(fresh)

	fleet := boot(3)
	defer halt(fleet)
	// Route both opens through a node that does NOT own the subsumed
	// query's key, so the second open exercises the routed path where the
	// semantic short-circuit decides.
	probe := mediator.New(mediator.DefaultOptions())
	probe.RegisterTree("homesSrc", homes)
	res, err := probe.Query(subQ)
	if err != nil {
		panic(err)
	}
	name, fp := res.CacheKey()
	ownerAddr := fleet[0].node.Owner(name, fp)
	entry := 0
	for i, m := range fleet {
		if m.addr != ownerAddr {
			entry = i
			break
		}
	}
	row("3 nodes: cold superset via non-owner", fleet, entry, superQ)
	row("3 nodes: subsumed via non-owner (semantic local)", fleet, entry, subQ)
	return t
}
