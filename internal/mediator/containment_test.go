package mediator

import (
	"testing"

	"mix/internal/algebra"
	"mix/internal/regioncache"
	"mix/internal/xmas"
	"mix/internal/xmltree"
)

// The containment fragment (algebra.Analyze) as the mediator reaches
// it: each pair is two XMAS texts, translated, composed, rewritten and
// canonicalized as every named plan is. The super query is drained into
// a fresh region cache, then the sub query opens against it; whether it
// is answered from the superset (a semantic hit) or from its sources,
// its answer must equal internal/eager's on the unrewritten plan.

// containmentSources mixes numeric and non-numeric text values, a
// duplicate book and a non-book entry; the homes and schools join on
// zip.
func containmentSources() map[string]*xmltree.Tree {
	bib := func() *xmltree.Tree {
		return xmltree.Elem("bib",
			xmltree.Elem("book", xmltree.Text("title", "tcp"), xmltree.Text("price", "65")),
			xmltree.Elem("book", xmltree.Text("title", "data"), xmltree.Text("price", "19")),
			xmltree.Elem("book", xmltree.Text("title", "web"), xmltree.Text("price", "9")),
			xmltree.Elem("cd", xmltree.Text("title", "sonata"), xmltree.Text("price", "10")),
			xmltree.Elem("book", xmltree.Text("title", "data"), xmltree.Text("price", "19")),
			xmltree.Elem("book", xmltree.Text("title", "odd"), xmltree.Text("price", "1x")),
		)
	}
	return map[string]*xmltree.Tree{
		"src":  bib(),
		"src2": bib(),
		"homesSrc": xmltree.Elem("homes",
			xmltree.Elem("home", xmltree.Text("zip", "92093"), xmltree.Text("price", "350000")),
			xmltree.Elem("home", xmltree.Text("zip", "92093"), xmltree.Text("price", "990000")),
			xmltree.Elem("home", xmltree.Text("zip", "92122"), xmltree.Text("price", "200000")),
			xmltree.Elem("home", xmltree.Text("zip", "92500"), xmltree.Text("price", "100000")),
		),
		"schoolsSrc": xmltree.Elem("schools",
			xmltree.Elem("school", xmltree.Text("zip", "92093")),
			xmltree.Elem("school", xmltree.Text("zip", "92093")),
			xmltree.Elem("school", xmltree.Text("zip", "92122")),
		),
	}
}

// semanticOpen drains super on a mediator with a fresh region cache,
// then opens and materializes sub. It returns sub's answer, eager's
// answer to sub's composed but unrewritten plan, and the semantic hits
// and misses the sub open recorded.
func semanticOpen(t *testing.T, m *Mediator, super, sub string) (got, want *xmltree.Tree, hits, misses int64) {
	t.Helper()
	cache := regioncache.New(0)
	m.SetRegionCache(cache)
	res, err := m.Query(super)
	if err != nil {
		t.Fatalf("super: %v", err)
	}
	if _, err := res.Materialize(); err != nil {
		t.Fatalf("super: %v", err)
	}
	before := cache.Stats()
	if res, err = m.Query(sub); err != nil {
		t.Fatalf("sub: %v", err)
	}
	if got, err = res.Materialize(); err != nil {
		t.Fatalf("sub: %v", err)
	}
	q, err := xmas.Parse(sub)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := q.Translate()
	if err != nil {
		t.Fatal(err)
	}
	var views []string
	if plan, err = m.compose(plan, &views); err != nil {
		t.Fatal(err)
	}
	if want, err = m.eager.Eval(plan); err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	return got, want, after.SemanticHits - before.SemanticHits, after.SemanticMisses - before.SemanticMisses
}

// TestContainmentFragment holds every rule of the fragment to a pair
// that reaches it: the hits are what the fragment buys, the misses what
// it refuses, and all of them answer as the eager evaluator does.
func TestContainmentFragment(t *testing.T) {
	const (
		byB   = `CONSTRUCT <r> $B {$B} </r> {} WHERE `
		byP   = `CONSTRUCT <r> $P {$P} </r> {} WHERE `
		byT   = `CONSTRUCT <r> $T {$T} </r> {} WHERE `
		byC   = `CONSTRUCT <r> $C {$C} </r> {} WHERE `
		books = `src bib.book $B AND $B price._ $P`
		joinW = `homesSrc homes.home $H AND $H zip._ $V1 AND schoolsSrc schools.school $S AND $S zip._ $V2`
		byH   = `CONSTRUCT <answer> <med_home> $H {$H} </med_home> </answer> {} WHERE `
		bySch = `CONSTRUCT <byschool> <sch> $S $H {$H} </sch> {$S} </byschool> {} WHERE `
	)
	for _, tc := range []struct {
		name       string
		super, sub string
		hit        bool
	}{
		// Sub's chain above the group binding: extra descents and
		// conditions, checked per group subtree.
		{"restriction", byB + `src bib.book $B`, byB + books + ` AND $P < "20"`, true},
		{"implied restriction", byB + books + ` AND $P < "50"`, byB + books + ` AND $P < "40"`, true},
		{"conjunction of restrictions", byB + books + ` AND $P < "50"`,
			byB + books + ` AND $P < "40" AND $P != "19"`, true},
		{"restriction on the grouped variable", byB + `src bib._ $B`, byB + `src bib._ $B AND $B != "x"`, true},
		{"unrestricted sub", byB + books + ` AND $P < "20"`, byB + `src bib.book $B`, false},
		{"restriction on another path", byB + books + ` AND $P < "50"`,
			byB + `src bib.book $B AND $B title._ $T AND $T = "data"`, false},
		{"restriction on another variable", byB + books + ` AND $P < "50"`,
			byB + books + ` AND $B title._ $T AND $T = "data"`, false},
		{"restriction not implied", byB + books + ` AND $P < "20"`, byB + books + ` AND $P < "50"`, false},

		// The group binding's path: a label test re-verifies a
		// single-step restriction; nothing below it may differ.
		{"weakened final step", byB + `src bib._ $B`, byB + `src bib.book $B`, true},
		{"weakened single step", byC + `src bib.book $B AND $B _ $C`, byC + `src bib.book $B AND $B title $C`, true},
		{"disjoint group path", byB + `src bib.book $B`, byB + `src bib.cd $B`, false},
		{"weakened below the group binding", byP + `src bib._ $B AND $B price._ $P`, byP + books, false},
		{"select below the group binding", byT + books + ` AND $P < "50" AND $B title._ $T`,
			byT + books + ` AND $P < "50" AND $B title._ $T AND $T = "data"`, true},
		{"different select below the group binding", byT + books + ` AND $P < "50" AND $B title._ $T`,
			byT + books + ` AND $P < "40" AND $B title._ $T`, false},
		{"descent from another parent", byT + books + ` AND $B title._ $T`, byT + books + ` AND $P _ $T`, false},
		{"group variables at different depths", byB + books, byP + books, false},
		{"super chain not local", byP + books + ` AND $B title._ $T`,
			byP + books + ` AND $B title._ $T AND $P != "x"`, false},

		// The decoration stack and the base.
		{"different root label", byB + `src bib.book $B`, `CONSTRUCT <s> $B {$B} </s> {} WHERE src bib.book $B`, false},
		{"root with two items", `CONSTRUCT <r> "n" $B {$B} </r> {} WHERE src bib.book $B`, byB + books, false},
		{"different source", byB + `src bib.book $B`, byB + `src2 bib.book $B`, false},

		// An ORDERBY makes the whole WHERE body the base: selects and
		// descents pair inside it, and sub's extra ones hoist above the
		// stable sort.
		{"ORDERBY, extra descent and condition", byB + books + ` AND $P < "50" ORDERBY $B`,
			byB + books + ` AND $P < "50" AND $B title._ $T AND $T = "data" ORDERBY $B`, true},
		{"ORDERBY, implied condition", byP + books + ` AND $P < "50" ORDERBY $P`,
			byP + books + ` AND $P < "40" ORDERBY $P`, true},
		{"ORDERBY, other keys", byB + books + ` ORDERBY $B`, byB + books + ` ORDERBY $P`, false},
		{"ORDERBY on one side", byB + books + ` ORDERBY $B`, byB + books + ` AND $P < "50"`, false},

		// Joins: either side's extra operators hoist if the grouped
		// subtree can evaluate them; join conditions never differ.
		{"join, restricted", byH + joinW + ` AND $V1 = $V2`,
			byH + joinW + ` AND $V1 = $V2 AND $H price._ $P AND $P < "400000"`, true},
		{"join, restricted before the join", byH + joinW + ` AND $V1 = $V2`,
			byH + `homesSrc homes.home $H AND $H price._ $P AND $P < "400000" AND $H zip._ $V1
			AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2`, true},
		{"join, condition on the other side", byH + joinW + ` AND $V1 = $V2`,
			byH + joinW + ` AND $V1 = $V2 AND $V2 != "92122"`, false},
		{"join, other grouped variable", byH + joinW + ` AND $V1 = $V2`,
			`CONSTRUCT <answer> <med_home> $S {$S} </med_home> </answer> {} WHERE ` + joinW + ` AND $V1 = $V2`, false},
		{"product super, join sub", byH + joinW, byH + joinW + ` AND $V1 = $V2`, false},

		// A group by a variable is no answer shape the fragment pairs
		// rule by rule: the two plans must be the same, and are compared
		// down to the first node that differs, here a literal.
		{"group by school, other literal", bySch + joinW + ` AND $V1 = $V2 AND $V2 > "92000"`,
			bySch + joinW + ` AND $V1 = $V2 AND $V2 > "92100"`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := New(DefaultOptions())
			for name, tree := range containmentSources() {
				m.RegisterTree(name, tree)
			}
			got, want, hits, misses := semanticOpen(t, m, tc.super, tc.sub)
			if !xmltree.Equal(got, want) {
				t.Fatalf("answer differs from eager\n got %s\nwant %s",
					xmltree.MarshalXML(got), xmltree.MarshalXML(want))
			}
			if hit := hits == 1; hit != tc.hit || hits+misses != 1 {
				t.Fatalf("semantic hits/misses = %d/%d, want hit=%v", hits, misses, tc.hit)
			}
		})
	}
}

// TestContainmentOverView: a query over a view (DefineView) composes
// the view's body under Rename and Project. Both queries compose the
// same body, which the fragment matches whole, so with a superset
// cached the restricted query is a semantic hit, not an error, and
// answers as the eager evaluator does.
func TestContainmentOverView(t *testing.T) {
	m := New(DefaultOptions())
	for name, tree := range containmentSources() {
		m.RegisterTree(name, tree)
	}
	if err := m.DefineView("books", byBooks); err != nil {
		t.Fatal(err)
	}
	const over = `CONSTRUCT <r> $X {$X} </r> {} WHERE books shelf.book $X`
	plan, err := m.Prepare(over)
	if err != nil {
		t.Fatal(err)
	}
	var rename, project bool
	algebra.Walk(plan, func(op algebra.Op) {
		switch op.(type) {
		case *algebra.Rename:
			rename = true
		case *algebra.Project:
			project = true
		}
	})
	if !rename || !project {
		t.Fatalf("composed plan has rename=%v project=%v, want both:\n%s", rename, project, algebra.String(plan))
	}
	got, want, hits, misses := semanticOpen(t, m, over, over+` AND $X price._ $P AND $P < "20"`)
	if !xmltree.Equal(got, want) {
		t.Fatalf("answer differs from eager\n got %s\nwant %s", xmltree.MarshalXML(got), xmltree.MarshalXML(want))
	}
	if hits != 1 || misses != 0 {
		t.Fatalf("semantic hits/misses = %d/%d, want one hit", hits, misses)
	}
}

// byBooks is a view of the books under a shelf root.
const byBooks = `CONSTRUCT <shelf> $B {$B} </shelf> {} WHERE src bib.book $B`
