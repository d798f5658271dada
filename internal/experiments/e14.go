package experiments

import (
	"net"

	"mix/internal/buffer"
	"mix/internal/core"
	"mix/internal/lxp"
	"mix/internal/nav"
	"mix/internal/telemetry"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

// E14AllocationPaths measures the allocation-aware fast paths of PR 5
// against the canonical implementations they replace, on two workloads
// chosen so the replaced machinery dominates:
//
//   - distinct+groupBy keys: each binding's key digests a ~200-node home
//     payload. Canonical string keys materialize and render the payload
//     per binding (O(subtree) allocations each); structural fingerprints
//     fold it into 16 bytes with a memoized hash (O(1) amortized).
//   - cold chunked-catalog drain: a client drains a chunked catalog from
//     an LXP wrapper over real TCP. The generic encoding/json codec and
//     per-frame buffers allocate per frame; the lean codec with pooled
//     buffers and label interning recycles nearly everything.
//
// Both cases carry an identity row: the optimized path must produce a
// byte-identical answer. Allocation counts are measured with
// runtime/metrics deltas over repeated runs; they are stable to within
// a few objects, and the improvement ratios are what the claim is
// about.
func E14AllocationPaths() Table {
	t := Table{
		ID:    "E14",
		Title: "Allocation-aware hot paths (fingerprint keys, lean pooled wire codec)",
		Claim: "Structural fingerprints and the pooled lean codec cut allocations " +
			"on equality-heavy queries and wire-heavy drains without changing " +
			"a single byte of any answer.",
		Expect: "≥3× fewer heap objects per query with fingerprint keys on the " +
			"distinct+groupBy workload; ≥2× fewer heap bytes per cold catalog " +
			"drain with the lean pooled codec; every identity row says yes.",
		Headers: []string{"case", "metric", "baseline", "optimized", "improvement"},
	}
	t.Rows = append(t.Rows, fingerprintKeyRows()...)
	t.Rows = append(t.Rows, leanCodecRows()...)
	return t
}

// measureAllocs runs fn iters times and returns the per-run heap
// allocation deltas (objects, bytes) from runtime/metrics.
func measureAllocs(iters int, fn func()) (objects, bytes uint64) {
	fn() // warm caches (interner, DFA states, pools) outside the window
	before := telemetry.ReadMemStats()
	for i := 0; i < iters; i++ {
		fn()
	}
	d := telemetry.ReadMemStats().Sub(before)
	return d.AllocObjects / uint64(iters), d.AllocBytes / uint64(iters)
}

// fingerprintKeyRows runs the distinct+groupBy plan whose keys digest
// full ~200-node home payloads, with canonical string keys vs.
// structural fingerprints.
func fingerprintKeyRows() [][]string {
	src := workload.DetailedHomes(160, 200, 12, 7)
	plan := workload.DistinctZipGroupsPlan("homesSrc")
	srcs := map[string]*xmltree.Tree{"homesSrc": src}
	run := func(fp bool) (*xmltree.Tree, uint64, uint64) {
		opts := core.Options{JoinCache: true, PathCache: true, GroupCache: true,
			HashJoin: true, Fingerprints: fp}
		var got *xmltree.Tree
		objects, bytes := measureAllocs(5, func() {
			q, _ := lazyRun(opts, srcs, plan)
			var err error
			if got, err = q.Materialize(); err != nil {
				panic(err)
			}
		})
		return got, objects, bytes
	}
	canonical, o0, b0 := run(false)
	fingerprint, o1, b1 := run(true)
	same := "yes"
	if !xmltree.Equal(canonical, fingerprint) {
		same = "NO"
	}
	return [][]string{
		{"fingerprint keys", "heap objects per query", itoa(int64(o0)), itoa(int64(o1)),
			ratio(float64(o0), float64(o1))},
		{"fingerprint keys", "heap KB per query", itoa(int64(b0 / 1024)), itoa(int64(b1 / 1024)),
			ratio(float64(b0), float64(b1))},
		{"fingerprint keys", "identical answer", same, same, "="},
	}
}

// leanCodecRows drains a cold 150-book chunked catalog from an LXP
// TreeServer over a real TCP connection, with the generic codec and
// per-frame allocation vs. the lean codec with pooled buffers.
func leanCodecRows() [][]string {
	catalog := workload.Books("az", 150, 7)
	want, err := nav.Materialize(nav.NewTreeDoc(catalog))
	if err != nil {
		panic(err)
	}
	run := func(lean bool) (*xmltree.Tree, uint64, uint64) {
		lxp.SetWireOptimizations(lean)
		defer lxp.SetWireOptimizations(true)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		srv := lxp.NewTCPServer(&lxp.TreeServer{Tree: catalog, Chunk: 10, InlineLimit: 1})
		go srv.Serve(l) //nolint:errcheck // exits with the listener
		defer l.Close()
		var got *xmltree.Tree
		objects, bytes := measureAllocs(5, func() {
			client, err := lxp.Dial(l.Addr().String())
			if err != nil {
				panic(err)
			}
			defer client.Close()
			b, err := buffer.New(client, "u")
			if err != nil {
				panic(err)
			}
			if got, err = nav.Materialize(b); err != nil {
				panic(err)
			}
		})
		return got, objects, bytes
	}
	legacy, o0, b0 := run(false)
	lean, o1, b1 := run(true)
	same := "yes"
	if !xmltree.Equal(legacy, lean) || !xmltree.Equal(legacy, want) {
		same = "NO"
	}
	return [][]string{
		{"lean pooled codec", "heap KB per cold drain", itoa(int64(b0 / 1024)), itoa(int64(b1 / 1024)),
			ratio(float64(b0), float64(b1))},
		{"lean pooled codec", "heap objects per cold drain", itoa(int64(o0)), itoa(int64(o1)),
			ratio(float64(o0), float64(o1))},
		{"lean pooled codec", "identical answer", same, same, "="},
	}
}
