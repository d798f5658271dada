package experiments

import (
	"mix/internal/mediator"
	"mix/internal/nav"
	"mix/internal/regioncache"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

// E12RegionCache measures the cross-session region cache: the first
// session to explore a region of a virtual answer document pays the
// full lazy-derivation cost; later sessions navigating the same region
// are answered from the shared cache with zero source navigations.
//
// Each "session" is a fresh mediator engine (what mixd's factory builds
// once per source epoch) over the homes/schools sources, querying the homeview view of
// the running example and exploring the first k results — the Web
// interaction pattern of Section 1, where lazy derivation makes the
// sources pay far more navigations than the client issues. Total counts
// client-boundary commands plus the engine-driven commands behind them
// (cache misses) plus the source navigations those fanned out to.
func E12RegionCache() Table {
	t := Table{
		ID:    "E12",
		Title: "Cross-session region cache (cold vs warm)",
		Claim: "Re-deriving explored fragments per client makes concurrent sessions cost " +
			"linear in session count; a shared cache of explored regions makes " +
			"every session after the first nearly free at the sources.",
		Expect: "the warm session performs 0 source navigations and ≥5× fewer total " +
			"navigation commands than the cold one; with the cache off or after " +
			"an invalidation the counts return to cold, and every session's " +
			"answer is byte-identical.",
		Headers: []string{"session", "client cmds", "engine cmds", "source navs", "total", "answer"},
	}
	homes, schools := workload.HomesSchools(60, 60, 12, 42)

	// session builds a fresh engine (sharing only the immutable source
	// trees and, when non-nil, the region cache), explores the whole
	// answer, and reports what the exploration cost at each boundary.
	session := func(cache *regioncache.Cache) (client, engine, source int64, answer string) {
		m := mediator.New(mediator.DefaultOptions())
		m.SetRegionCache(cache)
		hd := nav.NewCountingDoc(nav.NewTreeDoc(homes))
		sd := nav.NewCountingDoc(nav.NewTreeDoc(schools))
		m.RegisterSource("homesSrc", hd)
		m.RegisterSource("schoolsSrc", sd)
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
		tree, err := nav.ExploreFirst(cd, 5)
		if err != nil {
			panic(err)
		}
		client = cd.Counters.Navigations()
		if cache != nil {
			engine = cache.Stats().Misses - before.Misses
		} else {
			engine = client // every command drives the engine
		}
		source = hd.Counters.Navigations() + sd.Counters.Navigations()
		return client, engine, source, xmltree.MarshalXML(tree)
	}

	cache := regioncache.New(0)
	var want string
	row := func(label string, cache *regioncache.Cache) (total int64) {
		client, engine, source, answer := session(cache)
		if want == "" {
			want = answer
		}
		verdict := "identical"
		if answer != want {
			verdict = "DIFFERS"
		}
		total = client + engine + source
		t.Rows = append(t.Rows, []string{label,
			itoa(client), itoa(engine), itoa(source), itoa(total), verdict})
		return total
	}

	row("1: cold (first session)", cache)
	row("2: warm (same cache)", cache)
	row("3: warm again", cache)
	row("4: cache off", nil)
	cache.Invalidate() // the sources "changed" (here: to identical data)
	row("5: after invalidation", cache)
	return t
}
