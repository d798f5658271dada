package mix_test

// Cross-module integration tests: randomized plan-level equivalence of
// the lazy engine against the eager reference, the fully distributed
// path (XMAS → mediator → LXP over TCP → buffer → lazy mediators), and
// failure injection across the stack.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"strings"
	"testing"
	"testing/quick"

	"mix/internal/algebra"
	"mix/internal/buffer"
	"mix/internal/core"
	"mix/internal/eager"
	"mix/internal/lxp"
	"mix/internal/mediator"
	"mix/internal/nav"
	"mix/internal/pathexpr"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

// compile prepares plan as an uncached view and compiles it on e.
func compile(e *core.Engine, plan algebra.Op) (*core.Query, error) {
	v, err := core.Prepare(plan, "")
	if err != nil {
		return nil, err
	}
	return e.Compile(v)
}

// --- randomized plan equivalence ----------------------------------------

// planGen builds random valid algebra plans over the sources s0/s1.
type planGen struct {
	r    *rand.Rand
	next int
}

func (g *planGen) fresh() string {
	g.next++
	return fmt.Sprintf("v%d", g.next)
}

var genPaths = []string{"a", "b", "a._", "_", "(a|b)", "a*.x", "_._", "b.x"}

// gen returns a plan and its output variables.
func (g *planGen) gen(depth int) algebra.Op {
	if depth <= 0 {
		return &algebra.Source{URL: fmt.Sprintf("s%d", g.r.Intn(2)), Var: g.fresh()}
	}
	in := g.gen(depth - 1)
	vars := in.OutVars()
	pick := func() string { return vars[g.r.Intn(len(vars))] }
	switch g.r.Intn(12) {
	case 0:
		return &algebra.GetDescendants{Input: in, Parent: pick(),
			Path: pathexpr.MustParse(genPaths[g.r.Intn(len(genPaths))]), Out: g.fresh()}
	case 1:
		return &algebra.Select{Input: in, Cond: g.cond(vars)}
	case 2:
		right := g.gen(depth - 1)
		// Join needs disjoint vars; the fresh counter guarantees it.
		var cond algebra.Cond = algebra.True{}
		if g.r.Intn(2) == 0 {
			cond = algebra.Eq(algebra.V(pick()), algebra.V(right.OutVars()[g.r.Intn(len(right.OutVars()))]))
		}
		return &algebra.Join{Left: in, Right: right, Cond: cond}
	case 3:
		by := []string{}
		if g.r.Intn(2) == 0 {
			by = append(by, pick())
		}
		return &algebra.GroupBy{Input: in, By: by, Var: pick(), Out: g.fresh()}
	case 4:
		if len(vars) < 2 {
			return in
		}
		return &algebra.Concatenate{Input: in, X: vars[0], Y: vars[len(vars)-1], Out: g.fresh()}
	case 5:
		return &algebra.CreateElement{Input: in,
			Label: algebra.LabelSpec{Const: "e"}, Children: pick(), Out: g.fresh()}
	case 6:
		return &algebra.OrderBy{Input: in, Keys: []string{pick()}}
	case 7:
		keep := []string{pick()}
		return &algebra.Project{Input: in, Keep: keep}
	case 8:
		return &algebra.Distinct{Input: in}
	case 9:
		return &algebra.WrapList{Input: in, Var: pick(), Out: g.fresh()}
	case 10:
		return &algebra.Const{Input: in, Value: xmltree.Text("c", "1"), Out: g.fresh()}
	case 11:
		// Union / difference of a plan with itself is always valid.
		if g.r.Intn(2) == 0 {
			return &algebra.Union{Left: in, Right: in}
		}
		return &algebra.Difference{Left: in, Right: in}
	}
	return in
}

func (g *planGen) cond(vars []string) algebra.Cond {
	v := vars[g.r.Intn(len(vars))]
	switch g.r.Intn(4) {
	case 0:
		return algebra.Eq(algebra.V(v), algebra.Lit("1"))
	case 1:
		return &algebra.LabelMatch{Var: v, Label: "a"}
	case 2:
		return &algebra.Cmp{Op: algebra.OpLt, L: algebra.V(v), R: algebra.Lit("5")}
	default:
		return &algebra.Not{C: algebra.Eq(algebra.V(v), algebra.Lit("2"))}
	}
}

func randomSource(r *rand.Rand, depth int) *xmltree.Tree {
	labels := []string{"a", "b", "x"}
	t := &xmltree.Tree{Label: labels[r.Intn(len(labels))]}
	if depth <= 0 {
		return xmltree.Leaf(fmt.Sprintf("%d", r.Intn(6)))
	}
	for i, n := 0, r.Intn(4); i < n; i++ {
		t.Children = append(t.Children, randomSource(r, depth-1))
	}
	return t
}

// TestQuickRandomPlansLazyEqualsEager is the central randomized
// equivalence property: for random plans over random sources, the lazy
// mediator tree computes the same answer as the eager reference — under
// every cache configuration.
func TestQuickRandomPlansLazyEqualsEager(t *testing.T) {
	optsList := []core.Options{
		core.DefaultOptions(),
		{},
		{JoinCache: true},
		{PathCache: true, NativeSelect: true},
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := &planGen{r: r}
		plan := g.gen(1 + r.Intn(3))
		if err := algebra.Validate(plan); err != nil {
			t.Logf("seed %d: generator produced invalid plan: %v", seed, err)
			return false
		}
		src0 := xmltree.Elem("r", randomSource(r, 2), randomSource(r, 2))
		src1 := xmltree.Elem("r", randomSource(r, 3))

		ev := eager.New()
		ev.Register("s0", nav.NewTreeDoc(src0))
		ev.Register("s1", nav.NewTreeDoc(src1))
		want, err := ev.Eval(plan)
		if err != nil {
			t.Logf("seed %d: eager: %v", seed, err)
			return false
		}
		for _, opts := range optsList {
			e := core.New(opts)
			e.Register("s0", nav.NewTreeDoc(src0))
			e.Register("s1", nav.NewTreeDoc(src1))
			q, err := compile(e, plan)
			if err != nil {
				t.Logf("seed %d: compile: %v", seed, err)
				return false
			}
			got, err := q.Materialize()
			if err != nil {
				t.Logf("seed %d: lazy (%+v): %v", seed, opts, err)
				return false
			}
			if !xmltree.Equal(want, got) {
				t.Logf("seed %d (%+v): lazy ≠ eager\nplan:\n%swant: %s\ngot:  %s",
					seed, opts, algebra.String(plan), want, got)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRandomPlansPartialExplorationPrefix checks that partially
// exploring the lazy answer yields a prefix of the full answer: the
// explored part equals the eager answer with the unexplored tail
// replaced by a hole.
func TestQuickRandomPlansPartialExplorationPrefix(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := &planGen{r: r}
		plan := g.gen(1 + r.Intn(2))
		if algebra.Validate(plan) != nil {
			return false
		}
		src0 := xmltree.Elem("r", randomSource(r, 2), randomSource(r, 2))
		src1 := xmltree.Elem("r", randomSource(r, 2))

		e := core.New(core.DefaultOptions())
		e.Register("s0", nav.NewTreeDoc(src0))
		e.Register("s1", nav.NewTreeDoc(src1))
		q, err := compile(e, plan)
		if err != nil {
			return false
		}
		full, err := q.Materialize()
		if err != nil {
			return false
		}
		k := r.Intn(3)
		partial, err := nav.ExploreFirst(q.Document(), k)
		if err != nil {
			t.Logf("seed %d: partial: %v", seed, err)
			return false
		}
		// Compare the explored prefix against the full answer.
		n := len(partial.Children)
		if n > 0 && partial.Children[n-1].IsHole() {
			n--
		}
		if n > len(full.Children) {
			return false
		}
		for i := 0; i < n; i++ {
			if !xmltree.Equal(partial.Children[i], full.Children[i]) {
				t.Logf("seed %d: child %d differs", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// --- distributed end-to-end ----------------------------------------------

func TestDistributedMediation(t *testing.T) {
	homes, schools := workload.HomesSchools(40, 40, 8, 21)

	serve := func(doc *xmltree.Tree) (addr string, cleanup func()) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go lxp.NewTCPServer(&lxp.TreeServer{Tree: doc, Chunk: 5, InlineLimit: 32}).Serve(l)
		return l.Addr().String(), func() { l.Close() }
	}
	ha, hc := serve(homes)
	defer hc()
	sa, sc := serve(schools)
	defer sc()

	m := mediator.New(mediator.DefaultOptions())
	hclient, err := lxp.Dial(ha)
	if err != nil {
		t.Fatal(err)
	}
	defer hclient.Close()
	sclient, err := lxp.Dial(sa)
	if err != nil {
		t.Fatal(err)
	}
	defer sclient.Close()
	if _, err := m.RegisterLXP("homesSrc", hclient, "u"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterLXP("schoolsSrc", sclient, "u"); err != nil {
		t.Fatal(err)
	}

	const q = `
CONSTRUCT <answer> <med_home> $H $S {$S} </med_home> {$H} </answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2`
	res, err := m.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Materialize()
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the same query over local tree sources.
	m2 := mediator.New(mediator.DefaultOptions())
	m2.RegisterTree("homesSrc", homes)
	m2.RegisterTree("schoolsSrc", schools)
	want, err := m2.QueryEager(q)
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(got, want) {
		t.Fatal("distributed answer differs from local answer")
	}
}

func TestDistributedPartialExplorationFetchesPart(t *testing.T) {
	catalog := workload.Books("az", 400, 5)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	counting := lxp.NewCounting(&lxp.TreeServer{Tree: catalog, Chunk: 10, InlineLimit: 64})
	go lxp.NewTCPServer(counting).Serve(l)

	client, err := lxp.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// The counting wrapper sits server-side, so count at the client by
	// re-wrapping: use a local counting decorator over the client.
	cc := lxp.NewCounting(client)
	buf, err := buffer.New(cc, "u")
	if err != nil {
		t.Fatal(err)
	}
	e := core.New(core.DefaultOptions())
	e.Register("amazon", buf)
	gd := &algebra.GetDescendants{
		Input:  &algebra.Source{URL: "amazon", Var: "r"},
		Parent: "r", Path: pathexpr.MustParse("book"), Out: "B",
	}
	grp := &algebra.GroupBy{Input: gd, By: nil, Var: "B", Out: "BS"}
	ans := &algebra.CreateElement{Input: grp,
		Label: algebra.LabelSpec{Const: "hits"}, Children: "BS", Out: "A"}
	q, err := compile(e, &algebra.TupleDestroy{Input: ans, Var: "A"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nav.ExploreFirst(q.Document(), 3); err != nil {
		t.Fatal(err)
	}
	partial := cc.Counters.Fills.Load()
	if _, err := q.Materialize(); err != nil {
		t.Fatal(err)
	}
	full := cc.Counters.Fills.Load()
	if partial == 0 || partial >= full {
		t.Fatalf("partial exploration should fetch part of the source: partial=%d full=%d",
			partial, full)
	}
}

// --- failure injection -----------------------------------------------------

// failingServer answers a number of fills, then fails permanently.
type failingServer struct {
	inner lxp.Server
	after int
	n     int
}

func (f *failingServer) GetRoot(uri string) (string, error) { return f.inner.GetRoot(uri) }

func (f *failingServer) Fill(id string) ([]*xmltree.Tree, error) {
	f.n++
	if f.n > f.after {
		return nil, errors.New("wrapper: source went away")
	}
	return f.inner.Fill(id)
}

// TestSourceFailureSurfacesToClient fails the source at the first
// fill, the second, the middle one and the last one of a full scan (the
// fill count taken from a clean run), and each failure must reach the
// client.
func TestSourceFailureSurfacesToClient(t *testing.T) {
	homes, _ := workload.HomesSchools(30, 0, 5, 3)
	run := func(after int) (fills int, err error) {
		srv := &failingServer{
			inner: &lxp.TreeServer{Tree: homes, Chunk: 2, InlineLimit: 8},
			after: after,
		}
		buf, err := buffer.New(srv, "u")
		if err != nil {
			t.Fatal(err)
		}
		e := core.New(core.DefaultOptions())
		e.Register("homesSrc", buf)
		gd := &algebra.GetDescendants{
			Input:  &algebra.Source{URL: "homesSrc", Var: "r"},
			Parent: "r", Path: pathexpr.MustParse("home"), Out: "H",
		}
		q, err := compile(e, &algebra.Project{Input: gd, Keep: []string{"H"}})
		if err != nil {
			t.Fatal(err)
		}
		_, err = q.Materialize()
		return srv.n, err
	}
	total, err := run(math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	if total < 4 {
		t.Fatalf("a clean scan took %d fills, too few to inject failures into", total)
	}
	for _, after := range []int{0, 1, total / 2, total - 1} {
		_, err := run(after)
		if err == nil {
			t.Fatalf("after=%d of %d fills: failure did not surface", after, total)
		}
		if !strings.Contains(err.Error(), "source went away") {
			t.Fatalf("after=%d: wrong error: %v", after, err)
		}
	}
}

func TestConnectionDropSurfaces(t *testing.T) {
	catalog := workload.Books("az", 100, 1)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go lxp.NewTCPServer(&lxp.TreeServer{Tree: catalog, Chunk: 5, InlineLimit: 32}).Serve(l)

	client, err := lxp.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	buf, err := buffer.New(client, "u")
	if err != nil {
		t.Fatal(err)
	}
	root, err := buf.Root()
	if err != nil {
		t.Fatal(err)
	}
	// Kill the transport mid-session.
	client.Close()
	l.Close()
	// Navigation that needs a fill must now fail (the buffered part
	// keeps working).
	if _, err := buf.Fetch(root); err != nil {
		t.Fatalf("buffered fetch should not need the wire: %v", err)
	}
	failed := false
	p, err := buf.Down(root)
	for err == nil && p != nil {
		if _, err = nav.Subtree(buf, p); err != nil {
			break
		}
		p, err = buf.Right(p)
	}
	if err != nil {
		failed = true
	}
	if !failed {
		t.Fatal("full exploration over a dead connection should fail")
	}
}

// TestConcurrentIndependentQueries runs independent queries over shared
// immutable sources from multiple goroutines (each query has its own
// lazy state; the sources are read-only).
func TestConcurrentIndependentQueries(t *testing.T) {
	homes, schools := workload.HomesSchools(30, 30, 6, 17)
	m := mediator.New(mediator.DefaultOptions())
	m.RegisterTree("homesSrc", homes)
	m.RegisterTree("schoolsSrc", schools)
	const q = `
CONSTRUCT <answer> <med_home> $H $S {$S} </med_home> {$H} </answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2`

	want, err := m.QueryEager(q)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			res, err := m.Query(q)
			if err != nil {
				done <- err
				return
			}
			got, err := res.Materialize()
			if err != nil {
				done <- err
				return
			}
			if !xmltree.Equal(got, want) {
				done <- errors.New("concurrent query answer differs")
				return
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestQuickRandomPlansOverBufferedSources: the whole stack is
// transparent — evaluating random plans over chunked LXP-buffered
// sources yields exactly the answers of plain tree sources.
func TestQuickRandomPlansOverBufferedSources(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := &planGen{r: r}
		plan := g.gen(1 + r.Intn(2))
		if algebra.Validate(plan) != nil {
			return false
		}
		src0 := xmltree.Elem("r", randomSource(r, 2), randomSource(r, 2))
		src1 := xmltree.Elem("r", randomSource(r, 3))

		plain := core.New(core.DefaultOptions())
		plain.Register("s0", nav.NewTreeDoc(src0))
		plain.Register("s1", nav.NewTreeDoc(src1))
		pq, err := compile(plain, plan)
		if err != nil {
			return false
		}
		want, err := pq.Materialize()
		if err != nil {
			return false
		}

		buffered := core.New(core.DefaultOptions())
		for name, src := range map[string]*xmltree.Tree{"s0": src0, "s1": src1} {
			chunk := 1 + r.Intn(3)
			inline := 1 + r.Intn(8)
			b, err := buffer.New(&lxp.TreeServer{Tree: src, Chunk: chunk, InlineLimit: inline}, "u")
			if err != nil {
				return false
			}
			buffered.Register(name, b)
		}
		bq, err := compile(buffered, plan)
		if err != nil {
			return false
		}
		got, err := bq.Materialize()
		if err != nil {
			t.Logf("seed %d: buffered: %v", seed, err)
			return false
		}
		if !xmltree.Equal(want, got) {
			t.Logf("seed %d: buffered ≠ plain\nplan:\n%s", seed, algebra.String(plan))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestMediatorOrderByOverLXP: the ORDERBY language extension composed
// with buffered remote-style sources.
func TestMediatorOrderByOverLXP(t *testing.T) {
	homes, _ := workload.HomesSchools(40, 0, 8, 31)
	m := mediator.New(mediator.DefaultOptions())
	if _, err := m.RegisterLXP("homesSrc",
		&lxp.TreeServer{Tree: homes, Chunk: 4, InlineLimit: 16}, "u"); err != nil {
		t.Fatal(err)
	}
	res, err := m.Query(`
CONSTRUCT <sorted> $H {$H} </sorted> {}
WHERE homesSrc homes.home $H AND $H price._ $P
ORDERBY $P
`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Browsability != algebra.Unbrowsable {
		t.Fatalf("ORDERBY query should classify unbrowsable, got %v", res.Browsability)
	}
	got, err := res.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Children) != 40 {
		t.Fatalf("rows = %d", len(got.Children))
	}
	prev := ""
	for _, h := range got.Children {
		p := h.Find("price").TextContent()
		if prev != "" && algebra.Compare(prev, p) > 0 {
			t.Fatalf("not sorted: %s after %s", p, prev)
		}
		prev = p
	}
}

// TestQuickRewritePreservesSemantics: for random plans, the
// navigational-complexity rewriter must not change the answer.
func TestQuickRewritePreservesSemantics(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := &planGen{r: r}
		plan := g.gen(1 + r.Intn(3))
		if algebra.Validate(plan) != nil {
			return false
		}
		rewritten := algebra.Rewrite(plan)
		if err := algebra.Validate(rewritten); err != nil {
			t.Logf("seed %d: rewritten plan invalid: %v\nbefore:\n%safter:\n%s",
				seed, err, algebra.String(plan), algebra.String(rewritten))
			return false
		}
		src0 := xmltree.Elem("r", randomSource(r, 2), randomSource(r, 2))
		src1 := xmltree.Elem("r", randomSource(r, 3))
		eval := func(p algebra.Op) (*xmltree.Tree, error) {
			ev := eager.New()
			ev.Register("s0", nav.NewTreeDoc(src0))
			ev.Register("s1", nav.NewTreeDoc(src1))
			return ev.Eval(p)
		}
		want, err := eval(plan)
		if err != nil {
			return false
		}
		got, err := eval(rewritten)
		if err != nil {
			t.Logf("seed %d: rewritten eval: %v", seed, err)
			return false
		}
		if !sameRows(want, got) {
			t.Logf("seed %d: rewrite changed semantics\nbefore:\n%safter:\n%s\nwant: %s\ngot:  %s",
				seed, algebra.String(plan), algebra.String(rewritten), want, got)
			return false
		}
		// And the lazy engine agrees on the rewritten plan.
		le := core.New(core.DefaultOptions())
		le.Register("s0", nav.NewTreeDoc(src0))
		le.Register("s1", nav.NewTreeDoc(src1))
		q, err := compile(le, rewritten)
		if err != nil {
			return false
		}
		lz, err := q.Materialize()
		if err != nil {
			return false
		}
		return sameRows(got, lz)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// sameRows compares two bs[…] binding trees row-by-row, with each b's
// children compared as sets of variable assignments (projection
// pushdown may reorder a binding's variable list, which is not
// observable through the algebra's map-like bindings).
func sameRows(a, b *xmltree.Tree) bool {
	if a.Label != b.Label || len(a.Children) != len(b.Children) {
		return false
	}
	if a.Label != "bs" {
		return xmltree.Equal(a, b)
	}
	for i := range a.Children {
		if !sameAssignments(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

func sameAssignments(a, b *xmltree.Tree) bool {
	if a.Label != b.Label || len(a.Children) != len(b.Children) {
		return false
	}
	av := map[string]string{}
	for _, c := range a.Children {
		av[c.Label] = c.Canonical()
	}
	for _, c := range b.Children {
		if av[c.Label] != c.Canonical() {
			return false
		}
	}
	return true
}
