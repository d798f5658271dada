package mediator

import (
	"slices"
	"testing"

	"mix/internal/algebra"
	"mix/internal/eager"
	"mix/internal/lxp"
	"mix/internal/nav"
	"mix/internal/workload"
	"mix/internal/xmas"
	"mix/internal/xmltree"
)

const homesSchoolsView = `
CONSTRUCT <allhomes>
  <med_home> $H $S {$S} </med_home> {$H}
</allhomes> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
AND schoolsSrc schools.school $S AND $S zip._ $V2
AND $V1 = $V2
`

func newMediator(t *testing.T, seed int64) *Mediator {
	t.Helper()
	m := New(DefaultOptions())
	h, s := workload.HomesSchools(15, 20, 4, seed)
	m.RegisterTree("homesSrc", h)
	m.RegisterTree("schoolsSrc", s)
	return m
}

func TestDirectQuery(t *testing.T) {
	m := newMediator(t, 1)
	res, err := m.Query(homesSchoolsView)
	if err != nil {
		t.Fatal(err)
	}
	if res.Browsability != algebra.Browsable {
		t.Fatalf("browsability = %v", res.Browsability)
	}
	got, err := res.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != "allhomes" || len(got.Children) == 0 {
		t.Fatalf("answer = %v", got.Label)
	}
	// Lazy and eager agree through the mediator too.
	eagerT, err := m.QueryEager(homesSchoolsView)
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(got, eagerT) {
		t.Fatal("mediator lazy ≠ eager")
	}
}

func TestViewComposition(t *testing.T) {
	m := newMediator(t, 2)
	if err := m.DefineView("homesView", homesSchoolsView); err != nil {
		t.Fatal(err)
	}
	// Client query over the view: select med_homes (navigating the
	// virtual view document like a source).
	res, err := m.Query(`
CONSTRUCT <out> $M {$M} </out> {}
WHERE homesView allhomes.med_home $M
`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	// Compare against querying the view result directly.
	direct, err := m.QueryEager(homesSchoolsView)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Children) != len(direct.Children) {
		t.Fatalf("composition lost med_homes: %d vs %d",
			len(got.Children), len(direct.Children))
	}
	for i := range got.Children {
		if !xmltree.Equal(got.Children[i], direct.Children[i]) {
			t.Fatalf("med_home %d differs", i)
		}
	}
}

func TestViewCompositionWithSelection(t *testing.T) {
	m := newMediator(t, 3)
	if err := m.DefineView("homesView", homesSchoolsView); err != nil {
		t.Fatal(err)
	}
	res, err := m.Query(`
CONSTRUCT <zips> $Z {$Z} </zips> {}
WHERE homesView allhomes.med_home $M AND $M home.zip._ $Z
`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Children) == 0 {
		t.Fatal("no zips extracted through composed view")
	}
	// Lazy ≡ eager through composition.
	eagerT, err := m.QueryEager(`
CONSTRUCT <zips> $Z {$Z} </zips> {}
WHERE homesView allhomes.med_home $M AND $M home.zip._ $Z
`)
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(got, eagerT) {
		t.Fatal("composed lazy ≠ eager")
	}
}

func TestNestedViews(t *testing.T) {
	m := newMediator(t, 4)
	if err := m.DefineView("v1", homesSchoolsView); err != nil {
		t.Fatal(err)
	}
	if err := m.DefineView("v2", `
CONSTRUCT <homes2> $M {$M} </homes2> {}
WHERE v1 allhomes.med_home $M
`); err != nil {
		t.Fatal(err)
	}
	res, err := m.Query(`
CONSTRUCT <out> $M {$M} </out> {}
WHERE v2 homes2.med_home $M
`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Children) == 0 {
		t.Fatal("nested view composition yields nothing")
	}
}

func TestCyclicViewsRejected(t *testing.T) {
	m := newMediator(t, 5)
	if err := m.DefineView("a", `
CONSTRUCT <x> $M {$M} </x> {} WHERE b x.y $M`); err != nil {
		t.Fatal(err)
	}
	if err := m.DefineView("b", `
CONSTRUCT <y> $M {$M} </y> {} WHERE a x.y $M`); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Query(`CONSTRUCT <o> $M {$M} </o> {} WHERE a x.y $M`); err == nil {
		t.Fatal("cyclic views must be rejected")
	}
}

func TestQueryErrors(t *testing.T) {
	m := newMediator(t, 6)
	if _, err := m.Query("garbage"); err == nil {
		t.Fatal("syntax error must surface")
	}
	if _, err := m.Query(`CONSTRUCT <a> $X {$X} </a> {} WHERE nosuch p $X`); err == nil {
		t.Fatal("unknown source must fail at compile")
	}
	if err := m.DefineView("bad", "garbage"); err == nil {
		t.Fatal("bad view definition must fail")
	}
}

func TestRegisterLXPAndQuery(t *testing.T) {
	m := New(DefaultOptions())
	h, s := workload.HomesSchools(10, 10, 3, 7)
	if _, err := m.RegisterLXP("homesSrc", &lxp.TreeServer{Tree: h, Chunk: 2, InlineLimit: 8}, "u1"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterLXP("schoolsSrc", &lxp.TreeServer{Tree: s, Chunk: 2, InlineLimit: 8}, "u2"); err != nil {
		t.Fatal(err)
	}
	res, err := m.Query(homesSchoolsView)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Materialize()
	if err != nil {
		t.Fatal(err)
	}

	// Same answer as with plain tree sources.
	m2 := New(DefaultOptions())
	m2.RegisterTree("homesSrc", h)
	m2.RegisterTree("schoolsSrc", s)
	res2, err := m2.Query(homesSchoolsView)
	if err != nil {
		t.Fatal(err)
	}
	want, err := res2.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(got, want) {
		t.Fatal("buffered LXP sources change the answer")
	}
}

func TestClientLibrary(t *testing.T) {
	m := newMediator(t, 8)
	res, err := m.Query(homesSchoolsView)
	if err != nil {
		t.Fatal(err)
	}
	root, err := res.Root()
	if err != nil {
		t.Fatal(err)
	}
	name, err := root.Name()
	if err != nil || name != "allhomes" {
		t.Fatalf("root name %q, %v", name, err)
	}
	first, err := root.FirstChild()
	if err != nil || first == nil {
		t.Fatalf("FirstChild: %v %v", first, err)
	}
	if n, _ := first.Name(); n != "med_home" {
		t.Fatalf("first child %q", n)
	}
	home, err := first.Child("home")
	if err != nil || home == nil {
		t.Fatalf("Child(home): %v %v", home, err)
	}
	zip, err := home.Child("zip")
	if err != nil || zip == nil {
		t.Fatalf("Child(zip): %v %v", zip, err)
	}
	text, err := zip.Text()
	if err != nil || len(text) != 5 {
		t.Fatalf("zip text %q, %v", text, err)
	}
	kids := slices.Collect(first.Children())
	if err := first.Err(); err != nil || len(kids) < 2 {
		t.Fatalf("Children: %d, %v", len(kids), err)
	}
	// SelectChildren yields only the matching children, lazily.
	var schoolNames []string
	for s := range first.SelectChildren("school") {
		n, err := s.Name()
		if err != nil {
			t.Fatal(err)
		}
		schoolNames = append(schoolNames, n)
	}
	if err := first.Err(); err != nil {
		t.Fatal(err)
	}
	if len(schoolNames) == 0 || len(schoolNames) >= len(kids) {
		t.Fatalf("SelectChildren(school) = %v of %d kids", schoolNames, len(kids))
	}
	// Breaking out of a range leaves the rest of the list unexplored.
	for range first.Children() {
		break
	}
	if err := first.Err(); err != nil {
		t.Fatal(err)
	}
	sib, err := first.NextSibling()
	if err != nil {
		t.Fatal(err)
	}
	if sib != nil {
		if n, _ := sib.Name(); n != "med_home" {
			t.Fatalf("sibling %q", n)
		}
	}
	if miss, _ := home.Child("nothere"); miss != nil {
		t.Fatal("missing child should be nil")
	}
	tree, err := first.Materialize()
	if err != nil || tree.Label != "med_home" {
		t.Fatalf("Materialize: %v %v", tree, err)
	}
}

func TestClientLibraryEmptyDoc(t *testing.T) {
	if _, err := Wrap(nav.NewTreeDoc(xmltree.Elem("r"))); err != nil {
		t.Fatal(err)
	}
}

// TestRewriteToggle: rewriting keeps a plan's answer. The mediator
// always rewrites, so the check compares the eager answers of the
// translated plan before and after algebra.Rewrite, and the mediator's.
func TestRewriteToggle(t *testing.T) {
	h, s := workload.HomesSchools(8, 8, 3, 9)
	q := `
CONSTRUCT <r> $H {$H} </r> {}
WHERE homesSrc homes.home $H AND $H zip._ $Z
AND schoolsSrc schools.school $S AND $S zip._ $W
AND $Z = $W AND $Z = "91000"
`
	parsed, err := xmas.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := parsed.Translate()
	if err != nil {
		t.Fatal(err)
	}
	rewritten := algebra.Rewrite(plain)
	// Rewriting pushes the literal selection below the join.
	if algebra.String(plain) == algebra.String(rewritten) {
		t.Log("plans identical; rewriting found nothing to improve (acceptable but unexpected)")
	}
	ev := eager.New()
	ev.Register("homesSrc", nav.NewTreeDoc(h))
	ev.Register("schoolsSrc", nav.NewTreeDoc(s))
	a, err := ev.Eval(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ev.Eval(rewritten)
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(a, b) {
		t.Fatal("rewriting changed semantics")
	}
	m := New(DefaultOptions())
	m.RegisterTree("homesSrc", h)
	m.RegisterTree("schoolsSrc", s)
	if c, err := m.QueryEager(q); err != nil || !xmltree.Equal(a, c) {
		t.Fatalf("mediator answer %v (%v), want %v", c, err, a)
	}
}

// TestCompositionThroughAllOperators exercises view substitution
// through the full operator surface: a view referenced below selects,
// joins, groupBys, orderBys and helper ops.
func TestCompositionThroughAllOperators(t *testing.T) {
	m := newMediator(t, 29)
	if err := m.DefineView("v", homesSchoolsView); err != nil {
		t.Fatal(err)
	}
	// A query whose translated plan routes the view through select,
	// join, groupBy, concatenate, createElement and orderBy.
	q := `
CONSTRUCT <out>
  <pair> $M $N {$N} </pair> {$M}
</out> {}
WHERE v allhomes.med_home $M AND $M home.zip._ $Z
AND v allhomes.med_home.school $N AND $N zip._ $W
AND $Z = $W AND $Z >= "00000"
ORDERBY $Z
`
	res, err := m.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	lazyT, err := res.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	eagerT, err := m.QueryEager(q)
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(lazyT, eagerT) {
		t.Fatal("composed lazy ≠ eager through full operator surface")
	}
	if len(lazyT.Children) == 0 {
		t.Fatal("composition produced empty answer")
	}
}

func TestResultBrowsabilityExposed(t *testing.T) {
	m := newMediator(t, 30)
	res, err := m.Query(`
CONSTRUCT <r> $H {$H} </r> {}
WHERE homesSrc homes.home $H AND $H price._ $P
ORDERBY $P`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Browsability != algebra.Unbrowsable {
		t.Fatalf("browsability = %v", res.Browsability)
	}
	if res.Plan == nil {
		t.Fatal("plan not exposed")
	}
}
