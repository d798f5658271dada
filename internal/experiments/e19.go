package experiments

import (
	"fmt"
	"time"

	"mix/internal/cluster"
	"mix/internal/fleet"
	"mix/internal/mediator"
	"mix/internal/metrics"
	"mix/internal/server"
	"mix/internal/vxdp"
	"mix/internal/workload"
)

// persona is the client behavior E19 replays; mixbench -persona
// overrides it through SetPersona.
var persona = "deep-drill"

// SetPersona overrides the client persona replayed by E19
// ("deep-drill", "glance" or "select-heavy"). The steady-state
// zero-navigation shape in Expect is the deep-drill prediction; the
// other personas exist to show how the successor model degrades —
// shallow drains for glance, near-silence for select-heavy.
func SetPersona(name string) { persona = name }

// E19SpeculativePrefetch measures navigation-driven speculative
// prefetch (DESIGN.md §15): the server's per-view successor model
// watches which region a session engages, predicts the next one, and
// drains it into the region cache on the session's own query *before
// the client asks*. For the deep-drill persona the model locks onto the
// +1 scan after two engagements, so every region from the third on is
// served entirely from speculatively warmed cache — zero interactive
// source navigations — while the -prefetch=false ablation pays the
// sources for every region. The clustered half replays the same
// persona through a non-owner of a proxy-mode fleet: the proxied
// session speculates on the owner, and the steady-state regions again
// cost the whole fleet nothing interactive.
func E19SpeculativePrefetch() Table {
	t := Table{
		ID:    "E19",
		Title: "Speculative prefetch (persona: " + persona + ")",
		Claim: "A first-order successor model over engaged regions predicts the " +
			"client's next region and warms it speculatively, so sequential " +
			"navigation beyond the warm-up regions costs zero interactive source " +
			"navigations, on one node and across a proxied fleet.",
		Expect: "deep-drill: regions 0–1 pay the sources (training), regions 2+ " +
			"cost 0 interactive source navigations with hits ≈ issued and wasted 0; " +
			"the -prefetch=false ablation pays the sources for every region " +
			"(≥5× more interactive navigations in total); every answer is " +
			"byte-identical to the uncached oracle replay.",
		Headers: []string{"session", "warm-up src navs", "steady src navs",
			"issued/hits/wasted", "spec navs", "answer"},
	}
	const regions = 16
	const warmup = 2 // regions the model needs before its first prediction
	const query = `CONSTRUCT <homes> $H {$H} </homes> {} WHERE homesSrc homes.home $H`
	homes, _ := workload.HomesSchools(regions, 1, 6, 19)
	script := workload.PersonaScript(persona, regions, 19)
	if script == nil {
		panic("experiments: unknown persona " + persona)
	}

	// Oracle replay: the per-step explored parts an uncached engine
	// answers, bytes and all.
	oracle := make([]string, len(script))
	{
		m := mediator.New(mediator.DefaultOptions())
		m.RegisterTree("homesSrc", homes)
		res, err := m.Query(query)
		if err != nil {
			panic(err)
		}
		err = workload.ReplayPersona(res.Document(), script, func(i int, explored string) error {
			oracle[i] = explored
			return nil
		})
		if err != nil {
			panic(err)
		}
	}

	// Demand and speculation navigate one query per session, so the
	// sources count both, fleet-wide, on src; the drains' own share is
	// what the members report as speculative source navigations, and
	// the interactive navigations are the difference.
	src := &metrics.Counters{}
	specNavs := func(f *fleet.Fleet) int64 {
		var n int64
		for _, m := range f.Members {
			if st := m.Server.Stats(); st.Prefetch != nil {
				n += st.Prefetch.SrcNavs
			}
		}
		return n
	}

	// quiesce waits until the speculating member has no drain in
	// flight, so the next step measures a fully warmed (or fully
	// skipped) cache rather than a race against the drain.
	quiesce := func(m *fleet.Member) {
		deadline := time.Now().Add(10 * time.Second)
		for {
			st := m.Server.Stats()
			if st.Prefetch == nil || st.Prefetch.Inflight == 0 {
				return
			}
			if time.Now().After(deadline) {
				panic("experiments: speculative drain did not quiesce")
			}
			time.Sleep(200 * time.Microsecond)
		}
	}

	// run boots an n-member fleet (n > 1: proxy mode) with prefetch on
	// or off and replays the persona through the last member that does
	// NOT own the view, so on a fleet speculation happens on the owner
	// end of a proxied session. It reports the interactive source
	// navigations split into warm-up steps (the first two) and
	// steady-state steps, the owner's prefetch counters, the fleet-wide
	// speculative navigations, and whether every explored part matched
	// the oracle replay.
	run := func(n int, prefetch bool) []string {
		f := bootFleet(n, cluster.ModeProxy, func(int) (server.Factory, []server.Option) {
			return countingFactory(src, homes, nil), []server.Option{server.WithPrefetch(prefetch)}
		})
		defer f.Close()
		own := owner(f, query)
		entry := n - 1
		if n > 1 && own == entry {
			entry--
		}
		speculator := f.Members[own]
		c, err := vxdp.Dial(f.Members[entry].Addr)
		if err != nil {
			panic(err)
		}
		defer c.Close()
		if err := c.Open(query); err != nil {
			panic(err)
		}
		quiesce(speculator)
		var warm, steady int64
		interactive := func() int64 { return src.Navigations() - specNavs(f) }
		prev := interactive()
		specBefore := specNavs(f)
		identical := true
		err = workload.ReplayPersona(c, script, func(i int, explored string) error {
			quiesce(speculator)
			navs := interactive() - prev
			prev += navs
			if i < warmup {
				warm += navs
			} else {
				steady += navs
			}
			if explored != oracle[i] {
				identical = false
			}
			return nil
		})
		if err != nil {
			panic(err)
		}
		counters := "off"
		if st := speculator.Server.Stats(); st.Prefetch != nil {
			counters = fmt.Sprintf("%d/%d/%d", st.Prefetch.Issued, st.Prefetch.Hits, st.Prefetch.Wasted)
		}
		verdict := "identical"
		if !identical {
			verdict = "DIFFERS"
		}
		return []string{itoa(warm), itoa(steady), counters, itoa(specNavs(f) - specBefore), verdict}
	}

	row := func(label string, cells []string) {
		t.Rows = append(t.Rows, append([]string{label}, cells...))
	}
	total := func(cells []string) int64 {
		var w, s int64
		fmt.Sscan(cells[0], &w)
		fmt.Sscan(cells[1], &s)
		return w + s
	}
	// pair adds an n-member fleet's prefetch-on and -off rows and the
	// ratio of their interactive navigations.
	pair := func(label, ratioLabel string, n int) {
		on := run(n, true)
		row(label+": prefetch on", on)
		off := run(n, false)
		row(label+": -prefetch=false", off)
		if onT, offT := total(on), total(off); onT > 0 {
			row(ratioLabel+": off/on interactive ratio",
				[]string{"", fmt.Sprintf("%.1fx", float64(offT)/float64(onT)), "", "", ""})
		}
	}
	pair("1 node", "1 node", 1)
	pair("3 nodes via non-owner", "3 nodes", 3)
	return t
}
