package experiments

import (
	"mix/internal/cluster"
	"mix/internal/fleet"
	"mix/internal/metrics"
	"mix/internal/server"
	"mix/internal/workload"
)

// E15ClusterL2 measures the two-tier region cache of a mixd fleet: in a
// 3-node cluster (local routing mode), the first node to explore a
// virtual answer pays the full lazy-derivation cost at the sources;
// after its explored region is published to the key's owner, *any other
// node* serving the same query fills its cache from the owner over the
// wire (an L2 hit) and answers with zero source navigations — the
// single-node warm behaviour of E12, extended across processes.
//
// Sessions are real VXDP clients materializing the homeview answer
// through loopback servers, so the counts include everything the wire
// path adds. All measured quantities are navigation and cache counters.
func E15ClusterL2() Table {
	t := Table{
		ID:    "E15",
		Title: "Clustered two-tier region cache (cold vs warm, 1 vs 3 nodes)",
		Claim: "Sharding sessions by (view, plan fingerprint) lets a fleet share " +
			"explored regions: one node's exploration warms every node, so " +
			"cross-node warm sessions cost the sources nothing.",
		Expect: "the cold sessions (rows 1 and 3) pay identical source navigations " +
			"whether standalone or clustered; after one flush the warm cross-node " +
			"session fills from the owner (l2 hits > 0) with 0 source navigations, " +
			"the owner itself serves from the absorbed fill, and every answer is " +
			"byte-identical.",
		Headers: []string{"session", "client cmds", "source navs", "l2 hits", "answer"},
	}
	homes, schools := workload.HomesSchools(60, 60, 12, 42)
	src := &metrics.Counters{}
	factory := countingFactory(src, homes, schools)
	// n > 1 members form a cluster in local mode (no proxying — pure L2
	// region sharing), so publication happens only at the explicit Flush
	// below.
	boot := func(n int) *fleet.Fleet {
		return bootFleet(n, cluster.ModeLocal, func(int) (server.Factory, []server.Option) { return factory, nil })
	}

	// row materializes the whole answer through one member and reports
	// client commands, the fleet-wide source navigations it caused, and
	// the entry member's L2 hits.
	var want string
	row := func(label string, f *fleet.Fleet, entry int) {
		l2Hits := func() int64 {
			if node := f.Members[entry].Node; node != nil {
				return node.Stats().L2Hits
			}
			return 0
		}
		srcBefore, l2Before := src.Navigations(), l2Hits()
		client, answer := remoteAnswer(f.Members[entry].Addr, homeviewQuery, nil)
		source, l2 := src.Navigations()-srcBefore, l2Hits()-l2Before
		if want == "" {
			want = answer
		}
		verdict := "identical"
		if answer != want {
			verdict = "DIFFERS"
		}
		t.Rows = append(t.Rows, []string{label, itoa(client), itoa(source), itoa(l2), verdict})
	}

	solo := boot(1)
	row("1 node: cold", solo, 0)
	row("1 node: warm (L1)", solo, 0)
	solo.Close()

	f := boot(3)
	defer f.Close()
	// The ring decides which member owns this query's region; route the
	// cold session through one non-owner and the warm one through the
	// other, so the warm fill must cross the wire.
	own := owner(f, homeviewQuery)
	cold, warm := (own+1)%3, (own+2)%3

	row("3 nodes: cold via non-owner", f, cold)
	f.Members[cold].Node.Flush() // publish the explored region to its owner
	row("3 nodes: warm via other non-owner (L2)", f, warm)
	row("3 nodes: warm via owner (absorbed fill)", f, own)
	return t
}
