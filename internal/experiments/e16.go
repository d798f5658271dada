package experiments

import (
	"strconv"

	"mix/internal/cluster"
	"mix/internal/metrics"
	"mix/internal/server"
	"mix/internal/trace"
	"mix/internal/workload"
)

// E16FleetTracing measures what fleet-wide distributed tracing costs
// and what it buys: the same proxied navigation is run against a cold
// 3-node fleet twice — tracing off, then tracing on with a client-side
// recorder — always entering through a node that does NOT own the
// query's routing key, so every command hops entry → owner.
//
// Tracing must be free in navigation terms (identical client commands,
// identical fleet-wide source navigations: the engine evaluates the
// same plan either way), and the traced run must return ONE stitched
// forest whose spans are attributed to both the entry node (the proxy
// hops) and the owner node (the evaluation fan-out), with exactly one
// source-navigation span per counted source navigation — the paper's
// per-operator attribution of Def. 2, preserved across the fleet.
func E16FleetTracing() Table {
	t := Table{
		ID:    "E16",
		Title: "Fleet tracing: stitched cross-node forests at zero navigation cost",
		Claim: "Propagating a trace context over VXDP and stitching the owner's " +
			"span forest under the proxy hop attributes a fleet navigation " +
			"end-to-end without changing what the fleet does.",
		Expect: "both sessions issue identical client commands and induce identical " +
			"fleet-wide source navigations; only the traced session returns spans, " +
			"its forest covers both the entry and owner nodes, and its source-" +
			"navigation spans equal the counted source navigations.",
		Headers: []string{"session", "client cmds", "source navs", "spans", "src spans", "nodes"},
	}
	homes, schools := workload.HomesSchools(40, 40, 8, 42)
	src := &metrics.Counters{}
	factory := countingFactory(src, homes, schools)

	// row boots a cold 3-node proxy-mode fleet, members named n0..n2,
	// tracing per the flag, and materializes the answer through a member
	// the ring did not make owner of the query's key, so the session
	// must proxy; with a recorder it also reports the stitched forest's
	// totals.
	row := func(label string, traced bool) {
		f := bootFleet(3, cluster.ModeProxy, func(i int) (server.Factory, []server.Option) {
			return factory, []server.Option{
				server.WithNodeName("n" + strconv.Itoa(i)), server.WithTrace(traced)}
		})
		defer f.Close()
		var rec *trace.Recorder
		if traced {
			rec = trace.New()
		}
		entry := f.Members[(owner(f, homeviewQuery)+1)%3]
		srcBefore := src.Navigations()
		client, _ := remoteAnswer(entry.Addr, homeviewQuery, rec)
		source := src.Navigations() - srcBefore
		var spans, srcSpans, nodes int64
		if traced {
			roots := rec.Take()
			var count func(sp *trace.Span)
			count = func(sp *trace.Span) {
				spans++
				for _, k := range sp.Children {
					count(k)
				}
			}
			for _, r := range roots {
				count(r)
			}
			srcSpans = trace.SourceNavigations(roots)
			for node := range trace.NodeTotals(roots) {
				if node != "" {
					nodes++
				}
			}
		}
		t.Rows = append(t.Rows, []string{
			label, itoa(client), itoa(source), itoa(spans), itoa(srcSpans), itoa(nodes)})
	}
	row("3 nodes via non-owner, tracing off", false)
	row("3 nodes via non-owner, tracing on", true)
	return t
}
