package experiments

import (
	"mix/internal/mediator"
	"mix/internal/nav"
	"mix/internal/regioncache"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

// e12First is how many results each E12 session explores; e12More is
// how many more the row-6 session explores past them.
const e12First, e12More = 5, 5

// e12Session builds a fresh engine (what mixd's factory builds once per
// source epoch) over its own copy of the homes/schools sources, sharing
// only the region cache when non-nil, and explores the first k results
// of the homeview query. It reports the
// commands at the client boundary, the cache misses behind them (every
// command when the cache is off), and the answer; srcs gains the
// session's counting sources.
func e12Session(cache *regioncache.Cache, k int, srcs *[]*nav.CountingDoc) (client, engine int64, answer string) {
	homes, schools := workload.HomesSchools(60, 60, 12, 42)
	m := mediator.New(mediator.DefaultOptions())
	m.SetRegionCache(cache)
	hd := nav.NewCountingDoc(nav.NewTreeDoc(homes))
	sd := nav.NewCountingDoc(nav.NewTreeDoc(schools))
	m.RegisterSource("homesSrc", hd)
	m.RegisterSource("schoolsSrc", sd)
	*srcs = append(*srcs, hd, sd)
	if err := m.DefineView("homeview", homeviewDef); err != nil {
		panic(err)
	}
	var before regioncache.Stats
	if cache != nil {
		before = cache.Stats()
	}
	res, err := m.Query(homeviewQuery)
	if err != nil {
		panic(err)
	}
	cd := nav.NewCountingDoc(res.Document())
	tree, err := nav.ExploreFirst(cd, k)
	if err != nil {
		panic(err)
	}
	client = cd.Counters.Navigations()
	if cache != nil {
		engine = cache.Stats().Misses - before.Misses
	} else {
		engine = client // every command drives the engine
	}
	return client, engine, xmltree.MarshalXML(tree)
}

// sourceNavs totals the navigations of every source in srcs.
func sourceNavs(srcs []*nav.CountingDoc) (n int64) {
	for _, s := range srcs {
		n += s.Counters.Navigations()
	}
	return n
}

// E12RegionCache measures the cross-session region cache: the first
// session to explore a region of a virtual answer document pays the
// full lazy-derivation cost; later sessions navigating the same region
// are answered from the shared cache with zero source navigations, and
// a session that goes past it pays only for what lies past it.
//
// Each "session" is a fresh mediator engine (e12Session) querying the
// homeview view of the running example and exploring the first results
// — the Web interaction pattern of Section 1, where lazy derivation
// makes the sources pay far more navigations than the client issues.
// Total counts client-boundary commands plus the engine-driven commands
// behind them (cache misses) plus the source navigations those fanned
// out to. Source navigations are counted at the sources of every
// session: a miss drives the cache entry's one producer, which is the
// query of whichever session missed first.
func E12RegionCache() Table {
	t := Table{
		ID:    "E12",
		Title: "Cross-session region cache (cold vs warm)",
		Claim: "Re-deriving explored fragments per client makes concurrent sessions cost " +
			"linear in session count; a shared cache of explored regions makes " +
			"every session after the first nearly free at the sources.",
		Expect: "the warm session performs 0 source navigations and ≥5× fewer total " +
			"navigation commands than the cold one; with the cache off or after " +
			"an invalidation the counts return to cold; a session continuing past " +
			"the warm results pays the sources only what the deriving session would " +
			"for the same results; every session's answer is byte-identical.",
		Headers: []string{"session", "client cmds", "engine cmds", "source navs", "total", "answer"},
	}
	var srcs []*nav.CountingDoc
	answers := map[int]string{}
	row := func(label string, cache *regioncache.Cache, k int) {
		before := sourceNavs(srcs)
		client, engine, answer := e12Session(cache, k, &srcs)
		source := sourceNavs(srcs) - before
		if answers[k] == "" {
			_, _, answers[k] = e12Session(nil, k, new([]*nav.CountingDoc))
		}
		verdict := "identical"
		if answer != answers[k] {
			verdict = "DIFFERS"
		}
		t.Rows = append(t.Rows, []string{label,
			itoa(client), itoa(engine), itoa(source), itoa(client + engine + source), verdict})
	}

	cache := regioncache.New(0)
	row("1: cold (first session)", cache, e12First)
	row("2: warm (same cache)", cache, e12First)
	row("3: warm again", cache, e12First)
	row("4: cache off", nil, e12First)
	cache.Invalidate() // the sources "changed" (here: to identical data)
	row("5: after invalidation", cache, e12First)
	row("6: continue past a warm prefix", cache, e12First+e12More)
	return t
}
