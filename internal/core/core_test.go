package core

import (
	"errors"
	"strings"
	"testing"

	"mix/internal/algebra"
	"mix/internal/eager"
	"mix/internal/nav"
	"mix/internal/pathexpr"
	"mix/internal/regioncache"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

// engineWith registers materialized tree sources behind counting
// wrappers and returns the engine plus the per-source counters.
func engineWith(opts Options, srcs map[string]*xmltree.Tree) (*Engine, map[string]*nav.CountingDoc) {
	return engineOver(opts, srcs, treeSource)
}

// treeSource exposes a source tree as an in-memory document.
func treeSource(t *xmltree.Tree) nav.Document { return nav.NewTreeDoc(t) }

// engineOver is engineWith with each source tree exposed by doc.
func engineOver(opts Options, srcs map[string]*xmltree.Tree, doc func(*xmltree.Tree) nav.Document) (*Engine, map[string]*nav.CountingDoc) {
	e := New(opts)
	counters := map[string]*nav.CountingDoc{}
	for name, t := range srcs {
		cd := nav.NewCountingDoc(doc(t))
		counters[name] = cd
		e.Register(name, cd)
	}
	return e, counters
}

// mustPrepare prepares p under the region-cache name ("" for an
// uncached view).
func mustPrepare(tb testing.TB, p algebra.Op, name string) *View {
	tb.Helper()
	v, err := Prepare(p, name)
	if err != nil {
		tb.Fatalf("Prepare: %v\nplan:\n%s", err, algebra.String(p))
	}
	return v
}

func mustCompile(t *testing.T, e *Engine, p algebra.Op) *Query {
	t.Helper()
	return mustCompileAs(t, e, p, "")
}

// mustCompileAs compiles p prepared under the region-cache name.
func mustCompileAs(t *testing.T, e *Engine, p algebra.Op, name string) *Query {
	t.Helper()
	q, err := e.Compile(mustPrepare(t, p, name))
	if err != nil {
		t.Fatalf("Compile: %v\nplan:\n%s", err, algebra.String(p))
	}
	return q
}

func mustMaterialize(t *testing.T, q *Query) *xmltree.Tree {
	t.Helper()
	tree, err := q.Materialize()
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	return tree
}

// eagerAnswer is the reference answer: plan evaluated by internal/eager
// over the same source trees, serialized.
func eagerAnswer(t *testing.T, plan algebra.Op, srcs map[string]*xmltree.Tree) string {
	t.Helper()
	ev := eager.New()
	for name, tree := range srcs {
		ev.Register(name, nav.NewTreeDoc(tree))
	}
	tree, err := ev.Eval(plan)
	if err != nil {
		t.Fatalf("eager: %v", err)
	}
	return xmltree.MarshalXML(tree)
}

func TestSourceSingletonBinding(t *testing.T) {
	src := xmltree.Elem("r", xmltree.Leaf("a"), xmltree.Leaf("b"))
	e, _ := engineWith(DefaultOptions(), map[string]*xmltree.Tree{"s": src})
	q := mustCompile(t, e, &algebra.Source{URL: "s", Var: "X"})
	got := mustMaterialize(t, q)
	want := xmltree.Elem("bs", xmltree.Elem("b", xmltree.Elem("X", src)))
	if !xmltree.Equal(got, want) {
		t.Fatalf("got %v\nwant %v", got, want)
	}
}

// TestPrepareErrors: every plan error but an unregistered source
// surfaces at Prepare, before any engine sees the plan.
func TestPrepareErrors(t *testing.T) {
	if _, err := Prepare(&algebra.Source{URL: "", Var: ""}, ""); err == nil {
		t.Fatal("invalid plan must fail validation")
	}
	if _, err := Prepare(&algebra.Select{
		Input: &algebra.Source{URL: "s", Var: "X"},
		Cond:  algebra.Eq(algebra.V("nope"), algebra.Lit("1")),
	}, "v"); err == nil {
		t.Fatal("condition over unknown variable must fail validation")
	}
	// The one plan Validate passes but no pipeline can be built for
	// fails at Prepare, not at the first pull.
	if _, err := Prepare(&algebra.Distinct{Input: &algebra.TupleDestroy{
		Input: &algebra.Source{URL: "s", Var: "X"}, Var: "X",
	}}, ""); !errors.Is(err, errNestedTupleDestroy) {
		t.Fatalf("nested tupleDestroy: Prepare = %v", err)
	}
}

// TestPrepareKeysOnce: one named view compiles on any engine to the
// same cache key, concurrently, and an unnamed view carries none.
func TestPrepareKeysOnce(t *testing.T) {
	homes, _ := workload.HomesSchools(4, 0, 2, 9)
	plan := &algebra.GetDescendants{
		Input:  &algebra.Source{URL: "homesSrc", Var: "R"},
		Parent: "R", Path: pathexpr.MustParse("home"), Out: "H",
	}
	named := mustPrepare(t, plan, "v")
	_, want, _ := regioncache.Canonical(plan)
	fps := make(chan string, 4)
	for range cap(fps) {
		go func() {
			e, _ := engineWith(DefaultOptions(), map[string]*xmltree.Tree{"homesSrc": homes})
			e.SetRegionCache(regioncache.New(0))
			q, err := e.Compile(named)
			if err != nil {
				fps <- err.Error()
				return
			}
			fps <- q.CacheName() + " " + q.Fingerprint()
		}()
	}
	for range cap(fps) {
		if got := <-fps; got != "v "+want {
			t.Fatalf("compiled key %q, want %q", got, "v "+want)
		}
	}
	e, _ := engineWith(DefaultOptions(), map[string]*xmltree.Tree{"homesSrc": homes})
	if q := mustCompile(t, e, plan); q.CacheName() != "" || q.Fingerprint() != "" {
		t.Fatalf("unnamed view keyed (%q, %q)", q.CacheName(), q.Fingerprint())
	}
}

// TestCompileErrors: the registry is Compile's one input, so an
// unregistered source is its one error, reported for the first missing
// source in walk order; one view compiles once the source is there.
func TestCompileErrors(t *testing.T) {
	e := New(DefaultOptions())
	v := mustPrepare(t, &algebra.Join{
		Left:  &algebra.Source{URL: "a", Var: "X"},
		Right: &algebra.Source{URL: "b", Var: "Y"},
		Cond:  algebra.True{},
	}, "v")
	if _, err := e.Compile(v); err == nil || !strings.Contains(err.Error(), `unregistered source "a"`) {
		t.Fatalf("Compile = %v, want the unregistered source a", err)
	}
	e.Register("a", nav.NewTreeDoc(xmltree.Elem("r")))
	if _, err := e.Compile(v); err == nil || !strings.Contains(err.Error(), `unregistered source "b"`) {
		t.Fatalf("Compile = %v, want the unregistered source b", err)
	}
	e.Register("b", nav.NewTreeDoc(xmltree.Elem("r")))
	if _, err := e.Compile(v); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineBuiltOnFirstPull: Compile builds no operator pipeline; the
// first pull does, over the sources Compile resolved, and a query whose
// region-cache entry is already complete never builds one.
func TestPipelineBuiltOnFirstPull(t *testing.T) {
	homes, _ := workload.HomesSchools(6, 0, 2, 7)
	e, _ := engineWith(DefaultOptions(), map[string]*xmltree.Tree{"homesSrc": homes})
	e.SetRegionCache(regioncache.New(0))
	plan := func() algebra.Op {
		return &algebra.GetDescendants{
			Input:  &algebra.Source{URL: "homesSrc", Var: "R"},
			Parent: "R", Path: pathexpr.MustParse("home.zip"), Out: "Z",
		}
	}
	built := func(q *Query) bool { return q.top != nil && (q.top.log != nil || q.top.err != nil) }

	cold := mustCompileAs(t, e, plan(), "v")
	if built(cold) {
		t.Fatal("Compile built the pipeline")
	}
	want := xmltree.MarshalXML(mustMaterialize(t, cold))
	if !built(cold) {
		t.Fatal("a cold materialization built no pipeline")
	}
	warm := mustCompileAs(t, e, plan(), "v")
	if got := xmltree.MarshalXML(mustMaterialize(t, warm)); got != want {
		t.Fatalf("warm answer differs:\n%s\nvs\n%s", got, want)
	}
	if built(warm) {
		t.Fatal("a query over a complete entry built a pipeline")
	}

	// Sources are resolved at Compile: a Register before the first pull
	// does not reach an already compiled query.
	pinned := mustCompile(t, e, plan())
	other, _ := workload.HomesSchools(2, 0, 2, 8)
	e.Register("homesSrc", nav.NewTreeDoc(other))
	if got := xmltree.MarshalXML(mustMaterialize(t, pinned)); got != want {
		t.Fatalf("query read a source registered after its Compile:\n%s", got)
	}
}

func TestGetDescendantsPaperExample(t *testing.T) {
	// The getDescendants example of Section 3: extract zip values.
	homes := xmltree.Elem("homes",
		xmltree.Elem("home", xmltree.Text("addr", "La Jolla"), xmltree.Text("zip", "91220")),
		xmltree.Elem("home", xmltree.Text("addr", "El Cajon"), xmltree.Text("zip", "91223")),
	)
	e, _ := engineWith(DefaultOptions(), map[string]*xmltree.Tree{"homesSrc": homes})
	gd := &algebra.GetDescendants{
		Input:  &algebra.Source{URL: "homesSrc", Var: "R"},
		Parent: "R", Path: pathexpr.MustParse("home"), Out: "H",
	}
	zips := &algebra.GetDescendants{Input: gd, Parent: "H",
		Path: pathexpr.MustParse("zip._"), Out: "V1"}
	q := mustCompile(t, e, &algebra.Project{Input: zips, Keep: []string{"V1"}})
	got := mustMaterialize(t, q)
	want := xmltree.Elem("bs",
		xmltree.Elem("b", xmltree.Elem("V1", xmltree.Leaf("91220"))),
		xmltree.Elem("b", xmltree.Elem("V1", xmltree.Leaf("91223"))),
	)
	if !xmltree.Equal(got, want) {
		t.Fatalf("got %v\nwant %v", got, want)
	}
}

func TestGetDescendantsRecursive(t *testing.T) {
	deep := workload.DeepTree(3, 1)
	e, _ := engineWith(DefaultOptions(), map[string]*xmltree.Tree{"d": deep})
	gd := &algebra.GetDescendants{
		Input:  &algebra.Source{URL: "d", Var: "R"},
		Parent: "R", Path: pathexpr.MustParse("a*.x"), Out: "X",
	}
	q := mustCompile(t, e, &algebra.Project{Input: gd, Keep: []string{"X"}})
	got := mustMaterialize(t, q)
	// DeepTree(3,1) has one x per a-level: 3 matches.
	if n := len(got.Children); n != 3 {
		t.Fatalf("recursive matches = %d, want 3\n%v", n, got)
	}
}

func TestGetDescendantsAlternationAndWildcard(t *testing.T) {
	src := xmltree.Elem("r",
		xmltree.Text("a", "1"), xmltree.Text("b", "2"), xmltree.Text("c", "3"))
	e, _ := engineWith(DefaultOptions(), map[string]*xmltree.Tree{"s": src})
	gd := &algebra.GetDescendants{
		Input:  &algebra.Source{URL: "s", Var: "R"},
		Parent: "R", Path: pathexpr.MustParse("(a|c)._"), Out: "X",
	}
	q := mustCompile(t, e, &algebra.Project{Input: gd, Keep: []string{"X"}})
	got := mustMaterialize(t, q)
	if len(got.Children) != 2 {
		t.Fatalf("want 2 matches, got %v", got)
	}
	if got.Children[0].FirstChild().FirstChild().Label != "1" ||
		got.Children[1].FirstChild().FirstChild().Label != "3" {
		t.Fatalf("wrong matches or order: %v", got)
	}
}

func TestFig4EndToEnd(t *testing.T) {
	homes := xmltree.Elem("homes",
		xmltree.Elem("home", xmltree.Text("addr", "La Jolla"), xmltree.Text("zip", "91220"), xmltree.Text("price", "5")),
		xmltree.Elem("home", xmltree.Text("addr", "El Cajon"), xmltree.Text("zip", "91223"), xmltree.Text("price", "3")),
		xmltree.Elem("home", xmltree.Text("addr", "Nowhere"), xmltree.Text("zip", "99999"), xmltree.Text("price", "1")),
	)
	schools := xmltree.Elem("schools",
		xmltree.Elem("school", xmltree.Text("dir", "Smith"), xmltree.Text("zip", "91220")),
		xmltree.Elem("school", xmltree.Text("dir", "Bar"), xmltree.Text("zip", "91220")),
		xmltree.Elem("school", xmltree.Text("dir", "Hart"), xmltree.Text("zip", "91223")),
	)
	e, _ := engineWith(DefaultOptions(), map[string]*xmltree.Tree{
		"homesSrc": homes, "schoolsSrc": schools})
	q := mustCompile(t, e, workload.HomesSchoolsPlan())
	got := mustMaterialize(t, q)

	if got.Label != "answer" {
		t.Fatalf("root label %q", got.Label)
	}
	mhs := got.FindAll("med_home")
	if len(mhs) != 2 {
		t.Fatalf("want 2 med_home (Nowhere has no school), got %d:\n%s",
			len(mhs), xmltree.MarshalIndent(got))
	}
	// First med_home: La Jolla home followed by its two schools.
	first := mhs[0]
	if len(first.Children) != 3 {
		t.Fatalf("first med_home children = %d, want home+2 schools:\n%v", len(first.Children), first)
	}
	if first.Children[0].Label != "home" ||
		first.Children[0].Find("addr").TextContent() != "La Jolla" {
		t.Fatalf("first med_home home wrong: %v", first.Children[0])
	}
	if first.Children[1].Find("dir").TextContent() != "Smith" ||
		first.Children[2].Find("dir").TextContent() != "Bar" {
		t.Fatalf("school order wrong: %v", first)
	}
	second := mhs[1]
	if second.Children[0].Find("addr").TextContent() != "El Cajon" ||
		len(second.Children) != 2 ||
		second.Children[1].Find("dir").TextContent() != "Hart" {
		t.Fatalf("second med_home wrong: %v", second)
	}
}

func TestRootHandleTouchesNoSource(t *testing.T) {
	homes, schools := workload.HomesSchools(50, 50, 5, 1)
	e, counters := engineWith(DefaultOptions(), map[string]*xmltree.Tree{
		"homesSrc": homes, "schoolsSrc": schools})
	q := mustCompile(t, e, workload.HomesSchoolsPlan())
	doc := q.Document()
	root, err := doc.Root()
	if err != nil {
		t.Fatal(err)
	}
	label, err := doc.Fetch(root)
	if err != nil {
		t.Fatal(err)
	}
	if label != "answer" {
		t.Fatalf("root label %q", label)
	}
	for name, c := range counters {
		if n := c.Counters.Navigations(); n != 0 {
			t.Errorf("source %s navigated %d times before any client descent", name, n)
		}
	}
}

func TestPartialExplorationTouchesPartOfSources(t *testing.T) {
	homes, schools := workload.HomesSchools(200, 200, 40, 2)
	e, counters := engineWith(DefaultOptions(), map[string]*xmltree.Tree{
		"homesSrc": homes, "schoolsSrc": schools})
	q := mustCompile(t, e, workload.HomesSchoolsPlan())

	// Explore only the first med_home.
	if _, err := nav.ExploreFirst(q.Document(), 1); err != nil {
		t.Fatal(err)
	}
	partial := counters["homesSrc"].Counters.Navigations()

	// Full exploration costs strictly more.
	for _, c := range counters {
		c.Counters.Reset()
	}
	q2 := mustCompile(t, e, workload.HomesSchoolsPlan())
	if _, err := nav.Materialize(q2.Document()); err != nil {
		t.Fatal(err)
	}
	full := counters["homesSrc"].Counters.Navigations()
	if partial >= full {
		t.Fatalf("partial exploration (%d navs) should cost less than full (%d)", partial, full)
	}
	if partial == 0 {
		t.Fatal("exploring one result should touch the source")
	}
}

func TestConcatenateVariants(t *testing.T) {
	// Concatenate all four type combinations of Section 3.
	mk := func(x, y *xmltree.Tree) *xmltree.Tree {
		src := xmltree.Elem("r", x, y)
		e, _ := engineWith(DefaultOptions(), map[string]*xmltree.Tree{"s": src})
		gdx := &algebra.GetDescendants{Input: &algebra.Source{URL: "s", Var: "R"},
			Parent: "R", Path: pathexpr.MustParse("x"), Out: "X"}
		gdy := &algebra.GetDescendants{Input: gdx, Parent: "R",
			Path: pathexpr.MustParse("y"), Out: "Y"}
		conc := &algebra.Concatenate{Input: gdy, X: "X", Y: "Y", Out: "Z"}
		q := mustCompile(t, e, &algebra.Project{Input: conc, Keep: []string{"Z"}})
		res := mustMaterialize(t, q)
		return res.Children[0].Children[0].FirstChild() // bs>b>Z>list
	}

	// val + val → list[x, y]
	got := mk(xmltree.Text("x", "1"), xmltree.Text("y", "2"))
	if got.Label != "list" || len(got.Children) != 2 ||
		got.Children[0].Label != "x" || got.Children[1].Label != "y" {
		t.Fatalf("val+val: %v", got)
	}

	// list + val → flattened
	got = mk(xmltree.Elem("x", xmltree.Elem("list", xmltree.Leaf("a"), xmltree.Leaf("b"))), xmltree.Text("y", "2"))
	// note: X binds to the x element; its child is list[a,b]… the x
	// element itself is a value, so result is list[x[list[a,b]], y[2]].
	if len(got.Children) != 2 {
		t.Fatalf("element values are not flattened: %v", got)
	}
}

func TestConcatenateFlattensListValues(t *testing.T) {
	// groupBy produces list[…] values; concatenate must flatten them.
	src := xmltree.Elem("r",
		xmltree.Text("a", "1"), xmltree.Text("a", "2"), xmltree.Text("h", "x"))
	e, _ := engineWith(DefaultOptions(), map[string]*xmltree.Tree{"s": src})
	gdh := &algebra.GetDescendants{Input: &algebra.Source{URL: "s", Var: "R"},
		Parent: "R", Path: pathexpr.MustParse("h"), Out: "H"}
	gda := &algebra.GetDescendants{Input: gdh, Parent: "R",
		Path: pathexpr.MustParse("a"), Out: "A"}
	grp := &algebra.GroupBy{Input: gda, By: []string{"H"}, Var: "A", Out: "AS"}
	conc := &algebra.Concatenate{Input: grp, X: "H", Y: "AS", Out: "Z"}
	q := mustCompile(t, e, &algebra.Project{Input: conc, Keep: []string{"Z"}})
	res := mustMaterialize(t, q)
	z := res.Children[0].Children[0].FirstChild()
	// Z = list[h[x], a[1], a[2]] — the AS list was flattened.
	if len(z.Children) != 3 || z.Children[0].Label != "h" ||
		z.Children[1].Label != "a" || z.Children[2].Label != "a" {
		t.Fatalf("flattening wrong: %v", z)
	}
}

func TestCreateElementDynamicLabel(t *testing.T) {
	src := xmltree.Elem("r", xmltree.Text("tag", "custom"), xmltree.Text("v", "1"))
	e, _ := engineWith(DefaultOptions(), map[string]*xmltree.Tree{"s": src})
	gdt := &algebra.GetDescendants{Input: &algebra.Source{URL: "s", Var: "R"},
		Parent: "R", Path: pathexpr.MustParse("tag._"), Out: "T"}
	gdv := &algebra.GetDescendants{Input: gdt, Parent: "R",
		Path: pathexpr.MustParse("v"), Out: "V"}
	ce := &algebra.CreateElement{Input: gdv,
		Label: algebra.LabelSpec{Var: "T"}, Children: "V", Out: "E"}
	q := mustCompile(t, e, &algebra.Project{Input: ce, Keep: []string{"E"}})
	res := mustMaterialize(t, q)
	el := res.Children[0].Children[0].FirstChild()
	if el.Label != "custom" {
		t.Fatalf("dynamic label = %q, want custom", el.Label)
	}
	if len(el.Children) != 1 || el.Children[0].Label != "1" {
		t.Fatalf("children of created element wrong: %v", el)
	}
}

func TestGroupByPaperExample8(t *testing.T) {
	// Example 8's input/output, reconstructed through sources.
	homes := []string{"home1", "home1", "home2", "home1", "home3"}
	schools := []string{"school1", "school2", "school3", "school4", "school5"}
	src := xmltree.Elem("pairs")
	for i := range homes {
		src.Children = append(src.Children, xmltree.Elem("pair",
			xmltree.Text("h", homes[i]), xmltree.Text("s", schools[i])))
	}
	e, _ := engineWith(DefaultOptions(), map[string]*xmltree.Tree{"p": src})
	gd := &algebra.GetDescendants{Input: &algebra.Source{URL: "p", Var: "R"},
		Parent: "R", Path: pathexpr.MustParse("pair"), Out: "P"}
	h := &algebra.GetDescendants{Input: gd, Parent: "P",
		Path: pathexpr.MustParse("h._"), Out: "H"}
	s := &algebra.GetDescendants{Input: h, Parent: "P",
		Path: pathexpr.MustParse("s._"), Out: "S"}
	grp := &algebra.GroupBy{Input: s, By: []string{"H"}, Var: "S", Out: "LSs"}
	q := mustCompile(t, e, grp)
	got := mustMaterialize(t, q)

	if len(got.Children) != 3 {
		t.Fatalf("want 3 groups, got %v", got)
	}
	check := func(i int, home string, wantSchools ...string) {
		b := got.Children[i]
		if b.Find("H").TextContent() != home {
			t.Fatalf("group %d H = %v", i, b.Find("H"))
		}
		lst := b.Find("LSs").FirstChild()
		if lst.Label != "list" || len(lst.Children) != len(wantSchools) {
			t.Fatalf("group %d list = %v", i, lst)
		}
		for j, w := range wantSchools {
			if lst.Children[j].Label != w {
				t.Fatalf("group %d school %d = %q, want %q", i, j, lst.Children[j].Label, w)
			}
		}
	}
	check(0, "home1", "school1", "school2", "school4")
	check(1, "home2", "school3")
	check(2, "home3", "school5")
}

func TestGroupByEmptyByOnEmptyInput(t *testing.T) {
	// {} grouping yields exactly one (empty) group even on empty input,
	// so CONSTRUCT always creates one answer element.
	src := xmltree.Elem("r") // no children
	e, _ := engineWith(DefaultOptions(), map[string]*xmltree.Tree{"s": src})
	q := mustCompile(t, e, workload.SelectionPlan("s", "nope"))
	got := mustMaterialize(t, q)
	if got.Label != "result" || len(got.Children) != 0 {
		t.Fatalf("empty selection answer = %v, want bare result element", got)
	}
}

func TestOrderBy(t *testing.T) {
	src := xmltree.Elem("r",
		xmltree.Elem("p", xmltree.Text("age", "30")),
		xmltree.Elem("p", xmltree.Text("age", "9")),
		xmltree.Elem("p", xmltree.Text("age", "100")),
	)
	e, _ := engineWith(DefaultOptions(), map[string]*xmltree.Tree{"s": src})
	q := mustCompile(t, e, workload.ReorderPlan("s", "age._"))
	got := mustMaterialize(t, q)
	ages := []string{}
	for _, p := range got.Children {
		ages = append(ages, p.Find("age").TextContent())
	}
	// Numeric order, not lexicographic.
	if strings.Join(ages, ",") != "9,30,100" {
		t.Fatalf("orderBy ages = %v", ages)
	}
}

func TestUnionDifferenceDistinct(t *testing.T) {
	s1 := xmltree.Elem("r", xmltree.Text("a", "1"), xmltree.Text("a", "2"))
	s2 := xmltree.Elem("r", xmltree.Text("a", "2"), xmltree.Text("a", "3"))
	e, _ := engineWith(DefaultOptions(), map[string]*xmltree.Tree{"s1": s1, "s2": s2})
	gd := func(src string) algebra.Op {
		return &algebra.Project{
			Input: &algebra.GetDescendants{
				Input:  &algebra.Source{URL: src, Var: "R" + src},
				Parent: "R" + src, Path: pathexpr.MustParse("a._"), Out: "X",
			},
			Keep: []string{"X"},
		}
	}
	vals := func(q *Query) []string {
		tree := mustMaterialize(t, q)
		var out []string
		for _, b := range tree.Children {
			out = append(out, b.FirstChild().TextContent())
		}
		return out
	}

	u := mustCompile(t, e, &algebra.Union{Left: gd("s1"), Right: gd("s2")})
	if got := vals(u); strings.Join(got, ",") != "1,2,2,3" {
		t.Fatalf("union = %v", got)
	}
	d := mustCompile(t, e, &algebra.Difference{Left: gd("s1"), Right: gd("s2")})
	if got := vals(d); strings.Join(got, ",") != "1" {
		t.Fatalf("difference = %v", got)
	}
	dd := mustCompile(t, e, &algebra.Distinct{Input: &algebra.Union{Left: gd("s1"), Right: gd("s2")}})
	if got := vals(dd); strings.Join(got, ",") != "1,2,3" {
		t.Fatalf("distinct = %v", got)
	}
}

func TestSelectValueCondition(t *testing.T) {
	homes, _ := workload.HomesSchools(20, 0, 4, 3)
	e, _ := engineWith(DefaultOptions(), map[string]*xmltree.Tree{"h": homes})
	gd := &algebra.GetDescendants{Input: &algebra.Source{URL: "h", Var: "R"},
		Parent: "R", Path: pathexpr.MustParse("home"), Out: "H"}
	zip := &algebra.GetDescendants{Input: gd, Parent: "H",
		Path: pathexpr.MustParse("zip._"), Out: "Z"}
	sel := &algebra.Select{Input: zip, Cond: algebra.Eq(algebra.V("Z"), algebra.Lit("91000"))}
	q := mustCompile(t, e, &algebra.Project{Input: sel, Keep: []string{"H"}})
	got := mustMaterialize(t, q)
	want := 0
	for _, h := range homes.Children {
		if h.Find("zip").TextContent() == "91000" {
			want++
		}
	}
	if len(got.Children) != want {
		t.Fatalf("selected %d, want %d", len(got.Children), want)
	}
	if want == 0 {
		t.Fatal("test data produced no matching zip; adjust seed")
	}
}

func TestPersistentHandles(t *testing.T) {
	// Saved node-ids stay valid while navigation proceeds elsewhere —
	// the "client navigation may proceed from multiple nodes" property.
	homes, schools := workload.HomesSchools(10, 10, 2, 4)
	e, _ := engineWith(DefaultOptions(), map[string]*xmltree.Tree{
		"homesSrc": homes, "schoolsSrc": schools})
	q := mustCompile(t, e, workload.HomesSchoolsPlan())
	doc := q.Document()

	root, _ := doc.Root()
	first, err := doc.Down(root)
	if err != nil || first == nil {
		t.Fatalf("Down: %v %v", first, err)
	}
	second, err := doc.Right(first)
	if err != nil || second == nil {
		t.Fatalf("Right: %v %v", second, err)
	}
	// Descend deep under second…
	sub2, err := nav.Subtree(doc, second)
	if err != nil {
		t.Fatal(err)
	}
	// …then come back to the saved first handle.
	sub1, err := nav.Subtree(doc, first)
	if err != nil {
		t.Fatal(err)
	}
	// And the same handles re-materialize identically.
	sub1b, err := nav.Subtree(doc, first)
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(sub1, sub1b) {
		t.Fatal("re-navigation from saved handle differs")
	}
	if xmltree.Equal(sub1, sub2) {
		t.Fatal("distinct med_homes should differ")
	}
}

func TestAblationsPreserveSemantics(t *testing.T) {
	homes, schools := workload.HomesSchools(15, 15, 3, 5)
	variants := []Options{
		DefaultOptions(),
		{},
		{JoinCache: true},
		{PathCache: true},
		{GroupCache: true},
		{JoinCache: true, PathCache: true, GroupCache: true, NativeSelect: true},
	}
	var want *xmltree.Tree
	for i, opts := range variants {
		e, _ := engineWith(opts, map[string]*xmltree.Tree{
			"homesSrc": homes, "schoolsSrc": schools})
		q := mustCompile(t, e, workload.HomesSchoolsPlan())
		got := mustMaterialize(t, q)
		if i == 0 {
			want = got
			continue
		}
		if !xmltree.Equal(got, want) {
			t.Fatalf("options %+v change the result", opts)
		}
	}
}

func TestJoinCacheReducesSourceNavigations(t *testing.T) {
	homes, schools := workload.HomesSchools(20, 20, 4, 6)
	run := func(opts Options) int64 {
		e, counters := engineWith(opts, map[string]*xmltree.Tree{
			"homesSrc": homes, "schoolsSrc": schools})
		q := mustCompile(t, e, workload.HomesSchoolsPlan())
		mustMaterialize(t, q)
		return counters["schoolsSrc"].Counters.Navigations()
	}
	// PathCache must be off in the uncached run: the operator-level
	// descent cache would otherwise serve the join's re-iterations.
	with := run(Options{JoinCache: true, PathCache: true, GroupCache: true})
	without := run(Options{GroupCache: true})
	if with >= without {
		t.Fatalf("join cache should reduce inner navigations: with=%d without=%d", with, without)
	}
	// Without the cache the inner is rescanned per outer binding:
	// expect a multiplicative blowup at this size.
	if without < 2*with {
		t.Fatalf("expected strong contrast, with=%d without=%d", with, without)
	}
}

func TestSelectionPlanNativeSelect(t *testing.T) {
	// E3's mechanism: label selection over a child scan uses the
	// select(σ) command when NC includes it.
	src := workload.FlatList(100, "x", "x", "x", "x", "a") // every 5th is "a"… wait: labels cycle
	e, counters := engineWith(Options{JoinCache: true, PathCache: true, GroupCache: true, NativeSelect: true},
		map[string]*xmltree.Tree{"s": src})
	q := mustCompile(t, e, workload.SelectionPlan("s", "a"))
	got := mustMaterialize(t, q)
	wantCount := src.CountLabel("a")
	if len(got.Children) != wantCount {
		t.Fatalf("selected %d, want %d", len(got.Children), wantCount)
	}
	// Native select used: select counter incremented.
	if counters["s"].Counters.Select.Load() == 0 {
		t.Fatal("native select not used")
	}

	// Same result without native select.
	e2, counters2 := engineWith(DefaultOptions(), map[string]*xmltree.Tree{"s": src})
	q2 := mustCompile(t, e2, workload.SelectionPlan("s", "a"))
	got2 := mustMaterialize(t, q2)
	if !xmltree.Equal(got, got2) {
		t.Fatal("native select changes semantics")
	}
	if counters2["s"].Counters.Select.Load() != 0 {
		t.Fatal("select command used without NativeSelect option")
	}
}

func TestConcPlanBoundedNavigation(t *testing.T) {
	// qconc: fetching the k-th child label costs O(k) source commands,
	// independent of source size.
	costAt := func(n int) int64 {
		s1 := workload.FlatList(n, "a")
		s2 := workload.FlatList(n, "b")
		e, counters := engineWith(DefaultOptions(), map[string]*xmltree.Tree{"s1": s1, "s2": s2})
		q := mustCompile(t, e, workload.ConcPlan("s1", "s2"))
		if _, err := nav.Labels(q.Document(), 3); err != nil {
			t.Fatal(err)
		}
		return counters["s1"].Counters.Navigations() + counters["s2"].Counters.Navigations()
	}
	small, large := costAt(10), costAt(10_000)
	if small != large {
		t.Fatalf("qconc navigation cost should be size-independent: %d vs %d", small, large)
	}
}

func TestReorderPlanIsBlockingOnFirstResult(t *testing.T) {
	// The unbrowsable view: fetching even the first child requires
	// navigations proportional to the source size.
	cost := func(n int) int64 {
		src := xmltree.Elem("r")
		for i := n; i > 0; i-- {
			src.Children = append(src.Children,
				xmltree.Elem("p", xmltree.Text("age", strings.Repeat("9", 1+i%3))))
		}
		e, counters := engineWith(DefaultOptions(), map[string]*xmltree.Tree{"s": src})
		q := mustCompile(t, e, workload.ReorderPlan("s", "age._"))
		if _, err := nav.Labels(q.Document(), 1); err != nil {
			t.Fatal(err)
		}
		return counters["s"].Counters.Navigations()
	}
	c100, c1000 := cost(100), cost(1000)
	if c1000 < 5*c100 {
		t.Fatalf("unbrowsable view should scale with input: %d vs %d", c100, c1000)
	}
}

func TestBindingsDocumentVarOrder(t *testing.T) {
	src := xmltree.Elem("r", xmltree.Text("a", "1"))
	e, _ := engineWith(DefaultOptions(), map[string]*xmltree.Tree{"s": src})
	gd := &algebra.GetDescendants{Input: &algebra.Source{URL: "s", Var: "R"},
		Parent: "R", Path: pathexpr.MustParse("a"), Out: "X"}
	q := mustCompile(t, e, gd)
	got := mustMaterialize(t, q)
	b := got.FirstChild()
	if len(b.Children) != 2 || b.Children[0].Label != "R" || b.Children[1].Label != "X" {
		t.Fatalf("binding var order wrong: %v", b)
	}
}

func TestVDocForeignID(t *testing.T) {
	e, _ := engineWith(DefaultOptions(), map[string]*xmltree.Tree{"s": xmltree.Elem("r")})
	q := mustCompile(t, e, &algebra.Source{URL: "s", Var: "X"})
	doc := q.Document()
	if _, err := doc.Down("bogus"); err == nil {
		t.Fatal("foreign id should error")
	}
	if _, err := doc.Fetch(nil); err == nil {
		t.Fatal("nil id should error")
	}
}

func TestTupleDestroyEmptyInput(t *testing.T) {
	// tupleDestroy over a plan that yields no bindings errors on first
	// navigation (not at compile or root-handle time).
	src := xmltree.Elem("r")
	e, _ := engineWith(DefaultOptions(), map[string]*xmltree.Tree{"s": src})
	gd := &algebra.GetDescendants{Input: &algebra.Source{URL: "s", Var: "R"},
		Parent: "R", Path: pathexpr.MustParse("nothing"), Out: "X"}
	q := mustCompile(t, e, &algebra.TupleDestroy{Input: gd, Var: "X"})
	doc := q.Document()
	root, err := doc.Root()
	if err != nil {
		t.Fatalf("root handle must not fail: %v", err)
	}
	if _, err := doc.Fetch(root); err == nil {
		t.Fatal("fetching the root of an empty answer should error")
	}
}

func TestMemoListStability(t *testing.T) {
	// Pulling a memoized list twice yields identical nodes and does not
	// re-pull the inner list.
	pulls := 0
	inner := thunkList(func() (Node, list, error) {
		pulls++
		return leafNode("x"), emptyList{}, nil
	})
	m := memoize(inner)
	a, _, _ := m.next()
	b, _, _ := m.next()
	if pulls != 1 {
		t.Fatalf("memoized list pulled inner %d times", pulls)
	}
	la, _ := a.Label()
	lb, _ := b.Label()
	if la != lb {
		t.Fatal("memoized results differ")
	}
	if memoize(m) != m {
		t.Fatal("double memoize should be identity")
	}
}

func TestItemsOfListVsValue(t *testing.T) {
	lst := NewElem("list", consList{head: leafNode("a"), tail: singletonList(leafNode("b"))})
	items, err := drainList(itemsOf(lst))
	if err != nil || len(items) != 2 {
		t.Fatalf("itemsOf(list): %v %v", items, err)
	}
	val := leafNode("v")
	items, err = drainList(itemsOf(val))
	if err != nil || len(items) != 1 {
		t.Fatalf("itemsOf(value): %v %v", items, err)
	}
}

func drainList(l list) ([]Node, error) {
	var out []Node
	for {
		h, t, err := l.next()
		if err != nil {
			return nil, err
		}
		if h == nil {
			return out, nil
		}
		out = append(out, h)
		l = t
	}
}

// TestEngineRegistry: every Register moves the registry version, and a
// re-registered name replaces its source for later compiles.
func TestEngineRegistry(t *testing.T) {
	e := New(DefaultOptions())
	e.Register("a", nav.NewTreeDoc(xmltree.Elem("x")))
	e.Register("a", nav.NewTreeDoc(xmltree.Elem("y")))
	if v := e.RegistryVersion(); v != 2 {
		t.Fatalf("RegistryVersion = %d after two Registers, want 2", v)
	}
	got := mustMaterialize(t, mustCompile(t, e, &algebra.Source{URL: "a", Var: "X"}))
	want := xmltree.Elem("bs", xmltree.Elem("b", xmltree.Elem("X", xmltree.Elem("y"))))
	if !xmltree.Equal(got, want) {
		t.Fatalf("got %v\nwant %v", got, want)
	}
}
