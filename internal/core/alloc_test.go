package core

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"mix/internal/algebra"
	"mix/internal/buffer"
	"mix/internal/lxp"
	"mix/internal/metrics"
	"mix/internal/nav"
	"mix/internal/pathexpr"
	"mix/internal/regioncache"
	"mix/internal/trace"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

// hiddenTrees hides the document it embeds from capability probes: it
// has no Unwrap, so nav.Explorer.Shared cannot see the TreeHolder behind
// it and materialization copies.
type hiddenTrees struct{ nav.Document }

// TestMaterializeLeafAllocs pins the cost of the commonest
// materialization — a one-node value such as $V1 in "$H zip._ $V1",
// compared by a join or σ condition — and that it issues exactly the f
// and d commands the value needs. Over an in-memory source the value
// is the source's own leaf and costs nothing; over a document that
// hides its trees it costs at most one allocation of at most 128 bytes.
func TestMaterializeLeafAllocs(t *testing.T) {
	src := xmltree.Elem("home", xmltree.Text("zip", "91220"))
	for _, c := range []struct {
		name   string
		inner  nav.Document
		allocs float64
		bytes  uint64
	}{
		{"tree source", nav.NewTreeDoc(src), 0, 0},
		{"hidden trees", hiddenTrees{nav.NewTreeDoc(src)}, 1, 128},
	} {
		t.Run(c.name, func(t *testing.T) {
			cd := nav.NewCountingDoc(c.inner)
			root, _ := cd.Doc.Root()
			zip, _ := cd.Doc.Down(root)
			leaf, _ := cd.Doc.Down(zip)
			v := Node(&srcPos{doc: cd, id: leaf})

			got, err := MaterializeNode(v)
			if err != nil || !xmltree.Equal(got, xmltree.Leaf("91220")) {
				t.Fatalf("MaterializeNode = %v, %v; want leaf 91220", got, err)
			}

			const runs = 1000
			cd.Counters.Reset()
			var sink *xmltree.Tree
			allocs := testing.AllocsPerRun(runs, func() { sink, _ = MaterializeNode(v) })
			if allocs > c.allocs {
				t.Errorf("materializing a leaf: %.2f allocs, want <= %v", allocs, c.allocs)
			}
			// AllocsPerRun makes one warm-up call on top of the measured runs.
			s := cd.Counters.Snapshot()
			if s.Fetch != runs+1 || s.Down != runs+1 || s.Right != 0 {
				t.Errorf("navigation per leaf: f=%d d=%d r=%d over %d runs, want one f and one d each",
					s.Fetch, s.Down, s.Right, runs+1)
			}

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				sink, _ = MaterializeNode(v)
			}
			runtime.ReadMemStats(&after)
			if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > c.bytes {
				t.Errorf("materializing a leaf: %d B per call, want <= %d", per, c.bytes)
			}
			_ = sink
		})
	}
}

// recordFills keeps every tree an LXP server ships, so a test can tell
// a buffer value that is the wrapper's own fragment from a copy.
type recordFills struct {
	lxp.Server
	trees []*xmltree.Tree
}

func (r *recordFills) Fill(id string) ([]*xmltree.Tree, error) {
	trees, err := r.Server.Fill(id)
	r.trees = append(r.trees, trees...)
	return trees, err
}

// TestMaterializeSharesSourceSubtree: a source value behind a
// CountingDoc and a trace.Doc over a TreeDoc materializes to the
// TreeDoc's own subtree, allocating nothing, and issues the same
// commands and source spans as over a document that hides its trees,
// which gets a copy. Over an LXP buffer, a value whose fragment arrived
// without a hole is that fragment, and one whose fragment held a hole
// is an equal copy (the walk filled the hole in the buffer, not in the
// fragment); both issue the same commands too.
func TestMaterializeSharesSourceSubtree(t *testing.T) {
	src := xmltree.Elem("doc", xmltree.Elem("home",
		xmltree.Text("zip", "91220"),
		xmltree.Elem("rooms", xmltree.Leaf("3"), xmltree.Leaf("4"))))
	type read struct {
		tree  *xmltree.Tree
		nav   metrics.Snapshot
		spans int64
	}
	// chain puts inner behind a CountingDoc and a trace.Doc and returns
	// the traced document and the value of doc/home.
	chain := func(inner nav.Document) (*trace.Doc, *nav.CountingDoc, Node) {
		cd := nav.NewCountingDoc(inner)
		td := trace.NewDoc(cd, trace.SourcePrefix+"homes", trace.New())
		root, _ := inner.Root()
		home, _ := inner.Down(root)
		return td, cd, &srcPos{doc: td, id: home}
	}
	materialize := func(td *trace.Doc, cd *nav.CountingDoc, v Node) read {
		cd.Counters.Reset()
		td.Rec.Take()
		got, err := MaterializeNode(v)
		if err != nil {
			t.Fatal(err)
		}
		return read{got, cd.Counters.Snapshot(), trace.SourceNavigations(td.Rec.Take())}
	}
	// Six nodes: one f and one d each, one r after each non-root node.
	wantNav := metrics.Snapshot{Fetch: 6, Down: 6, Right: 5}
	sameCommands := func(name string, r read) {
		t.Helper()
		if r.nav != wantNav || r.spans != wantNav.Navigations() {
			t.Errorf("%s: navigations %+v and %d source spans, want %+v and %d",
				name, r.nav, r.spans, wantNav, wantNav.Navigations())
		}
	}

	treeDoc := nav.NewTreeDoc(src)
	td, cd, v := chain(treeDoc)
	shared := materialize(td, cd, v)
	want := src.Children[0]
	if shared.tree != want {
		t.Errorf("value over a TreeDoc is a copy, want the source's own subtree")
	}
	sameCommands("tree source", shared)

	copied := materialize(chain(hiddenTrees{nav.NewTreeDoc(src)}))
	if copied.tree == want || !xmltree.Equal(copied.tree, want) {
		t.Errorf("value over hidden trees = %v, want an equal copy of %v", copied.tree, want)
	}
	sameCommands("hidden trees", copied)

	// With the recorder detached, the trace.Doc records nothing and the
	// shared walk allocates nothing.
	td.Rec = nil
	if allocs := testing.AllocsPerRun(100, func() { _, _ = MaterializeNode(v) }); allocs != 0 {
		t.Errorf("shared value: %v allocs, want 0", allocs)
	}

	// The whole document in one fragment: doc/home is the fragment's
	// own node.
	whole := &recordFills{Server: &lxp.TreeServer{Tree: src}}
	buf, _ := buffer.New(whole, "doc")
	closed := materialize(chain(buf))
	if len(whole.trees) != 1 || closed.tree != whole.trees[0].Children[0] {
		t.Errorf("value over a closed LXP fragment is a copy, want the fragment's own subtree")
	}
	sameCommands("closed LXP fragment", closed)

	// Subtrees over three nodes ship as label[hole]: home arrives as
	// home[hole], so its value is a copy of what the buffer filled in.
	chunked := &recordFills{Server: &lxp.TreeServer{Tree: src, InlineLimit: 3}}
	buf, _ = buffer.New(chunked, "doc")
	filled := materialize(chain(buf))
	if !xmltree.Equal(filled.tree, want) {
		t.Errorf("value over an LXP fragment with a hole = %v, want %v", filled.tree, want)
	}
	for _, f := range append(chunked.trees, src.Children...) {
		if filled.tree == f {
			t.Errorf("value over an LXP fragment with a hole is a shipped tree, want a copy")
		}
	}
	sameCommands("LXP fragment with a hole", filled)
}

// TestBindingLinkSize pins the binding link at 64 bytes: the operator
// pipeline allocates one per derived binding, and 64 bytes is one
// allocation size class.
func TestBindingLinkSize(t *testing.T) {
	if n := unsafe.Sizeof(binding{}); n > 64 {
		t.Errorf("binding is %d bytes, want <= 64", n)
	}
}

// TestDescentAllocsPerMatch pins the cost of getDescendants: homes.home
// over N homes allocates at most two objects per match, its source
// position and its binding link, plus a constant for the cursor and
// its stack.
func TestDescentAllocsPerMatch(t *testing.T) {
	dfa := pathexpr.NewDFA(pathexpr.Compile(pathexpr.MustParse("homes.home")), nil)
	for _, n := range []int{100, 1000} {
		homes, _ := workload.HomesSchools(n, 0, 5, 3)
		doc := nav.NewTreeDoc(xmltree.Elem("doc", homes))
		matches := 0
		allocs := testing.AllocsPerRun(10, func() {
			c := newDescent(dfa, SourceRoot(doc))
			for matches = 0; ; matches++ {
				b, err := c.next()
				if err != nil {
					t.Fatal(err)
				}
				if b == nil {
					break
				}
			}
		})
		if matches != n {
			t.Fatalf("%d matches over %d homes", matches, n)
		}
		if bound := 2*n + 16; allocs > float64(bound) {
			t.Errorf("homes.home over %d homes allocates %v times, bound %d", n, allocs, bound)
		}
	}
}

// coldJoinGroupByAllocs bounds the allocations of the cold med-home
// plan: compiled on a fresh engine over fresh sources and drained. It
// measured 17 543 (Go 1.24, amd64); the bound adds the six that
// warmOpenAllocs (internal/mediator) adds to its measurement. While
// key and condition values copied their source subtrees, the same plan
// made 20 384; while the descent allocated a frame per match and a
// position per source step, 24 993; before the descent skipped the
// children of dead-end matches and the binding link shrank to 64
// bytes, 27 207.
const coldJoinGroupByAllocs = 17543 + 6

// TestColdJoinGroupByAllocs pins the allocations of one iteration of
// BenchmarkColdJoinGroupBy.
func TestColdJoinGroupByAllocs(t *testing.T) {
	homes, schools := workload.HomesSchools(400, 200, 200, 42)
	view := mustPrepare(t, workload.HomesSchoolsPlan(), "")
	allocs := testing.AllocsPerRun(5, func() {
		e := New(DefaultOptions())
		e.Register("homesSrc", nav.NewTreeDoc(homes))
		e.Register("schoolsSrc", nav.NewTreeDoc(schools))
		q, err := e.Compile(view)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.Materialize(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > coldJoinGroupByAllocs {
		t.Errorf("cold med-home plan allocates %v times, bound %d", allocs, coldJoinGroupByAllocs)
	}
}

// semanticHitAllocs bounds the allocations of one semantic hit: the
// compile and open of a fresh-literal σ-restriction of the benchmark's
// 48-home "homes" view, answered from that view's complete entry. It
// measured 1 388 (Go 1.24, amd64); the bound adds six, as
// coldJoinGroupByAllocs does. When the hit deep-copied the superset
// into a tree and merged a rebuilt tree back, it made 2 375.
const semanticHitAllocs = 1388 + 6

// TestSemanticHitAllocs pins the allocations of one semantic hit.
func TestSemanticHitAllocs(t *testing.T) {
	homes, _ := workload.HomesSchools(48, 24, 8, 12)
	e := New(DefaultOptions())
	e.Register("homesSrc", nav.NewTreeDoc(homes))
	e.SetRegionCache(regioncache.New(64 << 20))
	prepare := func(text string) *View {
		return mustPrepare(t, algebra.Rewrite(translateQ(t, text)), "query")
	}
	super, err := e.Compile(prepare(`CONSTRUCT <homes> $H {$H} </homes> {} WHERE homesSrc homes.home $H`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := super.Materialize(); err != nil || !super.Warm() {
		t.Fatalf("superset not complete after a drain: %v", err)
	}
	// AllocsPerRun makes one warm-up call on top of the measured runs,
	// and every call needs a fingerprint no earlier one had.
	const runs = 20
	views := make([]*View, runs+1)
	for i := range views {
		views[i] = prepare(fmt.Sprintf(`CONSTRUCT <homes> $H {$H} </homes> {}
WHERE homesSrc homes.home $H AND $H price._ $P AND $P < "600000" AND $P > "%d"`, i))
	}
	n := 0
	allocs := testing.AllocsPerRun(runs, func() {
		q, err := e.Compile(views[n])
		n++
		if err != nil || !q.Warm() {
			t.Fatalf("open %d: not answered semantically (%v)", n, err)
		}
	})
	if hits := e.cache.Stats().SemanticHits; hits != runs+1 {
		t.Fatalf("%d semantic hits, want %d", hits, runs+1)
	}
	if allocs > semanticHitAllocs {
		t.Errorf("one semantic hit allocates %v times, bound %d", allocs, semanticHitAllocs)
	}
}
