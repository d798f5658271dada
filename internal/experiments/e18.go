package experiments

import (
	"mix/internal/cluster"
	"mix/internal/fleet"
	"mix/internal/mediator"
	"mix/internal/metrics"
	"mix/internal/server"
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

	src := &metrics.Counters{}
	factory := countingFactory(src, homes, nil)
	// n > 1 members form a PROXY-mode cluster: session routing is on,
	// and the semantic short-circuit lives in the routed-open path.
	boot := func(n int) *fleet.Fleet {
		return bootFleet(n, cluster.ModeProxy, func(int) (server.Factory, []server.Option) { return factory, nil })
	}

	// row materializes query through one member and reports the
	// fleet-wide source navigations it caused, the deltas of the entry
	// member's semantic-hit and semantic-local counters, and whether the
	// answer is the oracle's.
	row := func(label string, f *fleet.Fleet, entry int, query string) {
		semantic := func() (hits, local int64) {
			st := f.Members[entry].Server.Stats()
			if st.Cache != nil {
				hits = st.Cache.SemanticHits
			}
			if st.Cluster != nil {
				local = st.Cluster.SemanticLocal
			}
			return hits, local
		}
		srcBefore := src.Navigations()
		hitsBefore, localBefore := semantic()
		_, answer := remoteAnswer(f.Members[entry].Addr, query, nil)
		hits, local := semantic()
		verdict := "identical"
		if answer != oracles[query] {
			verdict = "DIFFERS"
		}
		t.Rows = append(t.Rows, []string{label, itoa(src.Navigations() - srcBefore),
			itoa(hits - hitsBefore), itoa(local - localBefore), verdict})
	}

	solo := boot(1)
	row("1 node: cold superset", solo, 0, superQ)
	row("1 node: warm subsumed (semantic)", solo, 0, subQ)
	solo.Close()

	fresh := boot(1)
	row("1 node: cold subsumed (no superset cached)", fresh, 0, subQ)
	fresh.Close()

	f := boot(3)
	defer f.Close()
	// Route both opens through the first member that does NOT own the
	// subsumed query's key, so the second open exercises the routed path
	// where the semantic short-circuit decides.
	entry := 0
	if owner(f, subQ) == 0 {
		entry = 1
	}
	row("3 nodes: cold superset via non-owner", f, entry, superQ)
	row("3 nodes: subsumed via non-owner (semantic local)", f, entry, subQ)
	return t
}
