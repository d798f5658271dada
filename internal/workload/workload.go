// Package workload generates the synthetic datasets and canonical
// plans used by the tests, the examples, and the experiment suite:
//
//   - the paper's running example (Fig. 3/4): homes and schools sources
//     joined on zip code;
//   - the three views of Example 1 (concatenation / selection /
//     reorder) over flat list sources, which exhibit the three
//     browsability classes;
//   - the introduction's allbooks scenario: two bookseller catalogs
//     behind coarse-granularity sources.
//
// Generators are deterministic in their seed, so experiments are
// reproducible.
package workload

import (
	"fmt"
	"math/rand"

	"mix/internal/algebra"
	"mix/internal/pathexpr"
	"mix/internal/xmltree"
)

// HomesSchools generates the two sources of the running example:
//
//	homes[home[addr[…], zip[…]]…]     with nHomes homes
//	schools[school[dir[…], zip[…]]…]  with nSchools schools
//
// Zip codes are drawn from zips distinct values, so the join
// selectivity is controlled by zips. Deterministic in seed.
func HomesSchools(nHomes, nSchools, zips int, seed int64) (homes, schools *xmltree.Tree) {
	r := rand.New(rand.NewSource(seed))
	zip := func() string { return fmt.Sprintf("91%03d", r.Intn(zips)) }
	homes = xmltree.Elem("homes")
	for i := 0; i < nHomes; i++ {
		homes.Children = append(homes.Children, xmltree.Elem("home",
			xmltree.Text("addr", fmt.Sprintf("addr-%d", i)),
			xmltree.Text("zip", zip()),
			xmltree.Text("price", fmt.Sprintf("%d", 100_000+r.Intn(900_000))),
		))
	}
	schools = xmltree.Elem("schools")
	for i := 0; i < nSchools; i++ {
		schools.Children = append(schools.Children, xmltree.Elem("school",
			xmltree.Text("dir", fmt.Sprintf("dir-%d", i)),
			xmltree.Text("zip", zip()),
		))
	}
	return homes, schools
}

// HomesSchoolsPlan builds the Fig. 4 plan over sources named homesSrc
// and schoolsSrc: all homes having a school in the same zip code, each
// wrapped in a med_home element containing the home followed by the
// list of its schools, all under a single answer element.
func HomesSchoolsPlan() algebra.Op {
	homes := &algebra.GetDescendants{
		Input:  &algebra.Source{URL: "homesSrc", Var: "root1"},
		Parent: "root1", Path: pathexpr.MustParse("home"), Out: "H",
	}
	homesZip := &algebra.GetDescendants{Input: homes, Parent: "H",
		Path: pathexpr.MustParse("zip._"), Out: "V1"}
	schools := &algebra.GetDescendants{
		Input:  &algebra.Source{URL: "schoolsSrc", Var: "root2"},
		Parent: "root2", Path: pathexpr.MustParse("school"), Out: "S",
	}
	schoolsZip := &algebra.GetDescendants{Input: schools, Parent: "S",
		Path: pathexpr.MustParse("zip._"), Out: "V2"}
	join := &algebra.Join{Left: homesZip, Right: schoolsZip,
		Cond: algebra.Eq(algebra.V("V1"), algebra.V("V2"))}
	grp := &algebra.GroupBy{Input: join, By: []string{"H"}, Var: "S", Out: "LSs"}
	conc := &algebra.Concatenate{Input: grp, X: "H", Y: "LSs", Out: "HLSs"}
	mh := &algebra.CreateElement{Input: conc,
		Label: algebra.LabelSpec{Const: "med_home"}, Children: "HLSs", Out: "MHs"}
	all := &algebra.GroupBy{Input: mh, By: nil, Var: "MHs", Out: "MHL"}
	ans := &algebra.CreateElement{Input: all,
		Label: algebra.LabelSpec{Const: "answer"}, Children: "MHL", Out: "A"}
	return &algebra.TupleDestroy{Input: ans, Var: "A"}
}

// FlatList generates a flat list source r[e…] with n children. Each
// child's label cycles through the given labels and carries its index
// as a single text child, e.g. a[0], b[1], a[2], …
func FlatList(n int, labels ...string) *xmltree.Tree {
	if len(labels) == 0 {
		labels = []string{"item"}
	}
	t := xmltree.Elem("r")
	for i := 0; i < n; i++ {
		t.Children = append(t.Children,
			xmltree.Text(labels[i%len(labels)], fmt.Sprintf("%d", i)))
	}
	return t
}

// ConcPlan builds q_conc of Example 1: decapitate the roots of two
// sources and concatenate their first-level children under a new root.
// Bounded browsable.
func ConcPlan(src1, src2 string) algebra.Op {
	l := &algebra.GroupBy{
		Input: &algebra.GetDescendants{
			Input:  &algebra.Source{URL: src1, Var: "r1"},
			Parent: "r1", Path: pathexpr.MustParse("_"), Out: "X",
		},
		By: nil, Var: "X", Out: "XS",
	}
	r := &algebra.GroupBy{
		Input: &algebra.GetDescendants{
			Input:  &algebra.Source{URL: src2, Var: "r2"},
			Parent: "r2", Path: pathexpr.MustParse("_"), Out: "Y",
		},
		By: nil, Var: "Y", Out: "YS",
	}
	j := &algebra.Join{Left: l, Right: r, Cond: algebra.True{}}
	conc := &algebra.Concatenate{Input: j, X: "XS", Y: "YS", Out: "Z"}
	ans := &algebra.CreateElement{Input: conc,
		Label: algebra.LabelSpec{Const: "result"}, Children: "Z", Out: "A"}
	return &algebra.TupleDestroy{Input: ans, Var: "A"}
}

// SelectionPlan builds q_σ of Example 1: pick the first-level children
// of src whose label is label. (Unbounded) browsable with NC = {d,r,f};
// bounded browsable when NC includes select(σ).
func SelectionPlan(src, label string) algebra.Op {
	gd := &algebra.GetDescendants{
		Input:  &algebra.Source{URL: src, Var: "r"},
		Parent: "r", Path: pathexpr.MustParse("_"), Out: "X",
	}
	sel := &algebra.Select{Input: gd, Cond: &algebra.LabelMatch{Var: "X", Label: label}}
	grp := &algebra.GroupBy{Input: sel, By: nil, Var: "X", Out: "XS"}
	ans := &algebra.CreateElement{Input: grp,
		Label: algebra.LabelSpec{Const: "result"}, Children: "XS", Out: "A"}
	return &algebra.TupleDestroy{Input: ans, Var: "A"}
}

// ReorderPlan builds the unbrowsable view of Example 1: reorder the
// first-level children of src by the text value reachable through
// keyPath (e.g. an age or price attribute).
func ReorderPlan(src, keyPath string) algebra.Op {
	gd := &algebra.GetDescendants{
		Input:  &algebra.Source{URL: src, Var: "r"},
		Parent: "r", Path: pathexpr.MustParse("_"), Out: "X",
	}
	key := &algebra.GetDescendants{Input: gd, Parent: "X",
		Path: pathexpr.MustParse(keyPath), Out: "K"}
	ob := &algebra.OrderBy{Input: key, Keys: []string{"K"}}
	grp := &algebra.GroupBy{Input: ob, By: nil, Var: "X", Out: "XS"}
	ans := &algebra.CreateElement{Input: grp,
		Label: algebra.LabelSpec{Const: "result"}, Children: "XS", Out: "A"}
	return &algebra.TupleDestroy{Input: ans, Var: "A"}
}

// Books generates a bookseller catalog in the shape of the intro's
// amazon/barnesandnoble sources:
//
//	catalog[book[title[…], author[…], subject[…], price[…]]…]
//
// Subjects cycle through a fixed set so subject selections have
// predictable selectivity. Deterministic in seed; the store tag
// distinguishes the two sellers' title spaces.
func Books(store string, n int, seed int64) *xmltree.Tree {
	r := rand.New(rand.NewSource(seed))
	subjects := []string{"databases", "systems", "networks", "theory", "ai"}
	t := xmltree.Elem("catalog")
	for i := 0; i < n; i++ {
		t.Children = append(t.Children, xmltree.Elem("book",
			xmltree.Text("title", fmt.Sprintf("%s-book-%d", store, i)),
			xmltree.Text("author", fmt.Sprintf("author-%d", r.Intn(n/2+1))),
			xmltree.Text("subject", subjects[i%len(subjects)]),
			xmltree.Text("price", fmt.Sprintf("%d.%02d", 10+r.Intn(90), r.Intn(100))),
		))
	}
	return t
}

// AllBooksPlan builds the intro's allbooks integrated view: the union
// of both catalogs' books, restricted to a subject, under one allbooks
// root. src1/src2 name the two bookseller sources.
func AllBooksPlan(src1, src2, subject string) algebra.Op {
	pick := func(src, rootVar string) algebra.Op {
		gd := &algebra.GetDescendants{
			Input:  &algebra.Source{URL: src, Var: rootVar},
			Parent: rootVar, Path: pathexpr.MustParse("book"), Out: "B",
		}
		sub := &algebra.GetDescendants{Input: gd, Parent: "B",
			Path: pathexpr.MustParse("subject._"), Out: "SUBJ"}
		sel := &algebra.Select{Input: sub,
			Cond: algebra.Eq(algebra.V("SUBJ"), algebra.Lit(subject))}
		return &algebra.Project{Input: sel, Keep: []string{"B"}}
	}
	u := &algebra.Union{Left: pick(src1, "r1"), Right: pick(src2, "r2")}
	grp := &algebra.GroupBy{Input: u, By: nil, Var: "B", Out: "BS"}
	ans := &algebra.CreateElement{Input: grp,
		Label: algebra.LabelSpec{Const: "allbooks"}, Children: "BS", Out: "A"}
	return &algebra.TupleDestroy{Input: ans, Var: "A"}
}

// DeepTree generates a tree for the recursive-path experiments: a
// chain of depth nested a elements, each level also carrying fanout
// leaf x elements, with a final x marker at the bottom:
//
//	a[x[0] … a[x[…] … a[x[bottom]]]]
func DeepTree(depth, fanout int) *xmltree.Tree {
	node := xmltree.Elem("a")
	for j := 0; j < fanout; j++ {
		node.Children = append(node.Children, xmltree.Text("x", "bottom"))
	}
	for i := depth - 1; i > 0; i-- {
		parent := xmltree.Elem("a")
		for j := 0; j < fanout; j++ {
			parent.Children = append(parent.Children, xmltree.Text("x", fmt.Sprintf("%d", i)))
		}
		parent.Children = append(parent.Children, node)
		node = parent
	}
	return xmltree.Elem("root", node)
}

// RecursivePlan extracts, via the recursive path a*.x, every x element
// of a DeepTree source — the recursive getDescendants workload of E7.
func RecursivePlan(src string) algebra.Op {
	gd := &algebra.GetDescendants{
		Input:  &algebra.Source{URL: src, Var: "r"},
		Parent: "r", Path: pathexpr.MustParse("a*.x"), Out: "X",
	}
	grp := &algebra.GroupBy{Input: gd, By: nil, Var: "X", Out: "XS"}
	ans := &algebra.CreateElement{Input: grp,
		Label: algebra.LabelSpec{Const: "result"}, Children: "XS", Out: "A"}
	return &algebra.TupleDestroy{Input: ans, Var: "A"}
}

// DetailedHomes generates a homes source whose home elements carry,
// besides their zip leaf, a rich nested listing[…] payload of roughly
// detailNodes nodes (rooms with name/area/features, photo captions).
// The fan-out directly under home stays tiny — a zip._ scan prunes the
// listing immediately — but any operator that *keys* on $H must digest
// the whole payload, which is what makes this the workload of the
// key-allocation experiment (E14). Deterministic in seed.
func DetailedHomes(nHomes, detailNodes, zips int, seed int64) *xmltree.Tree {
	r := rand.New(rand.NewSource(seed))
	homes := xmltree.Elem("homes")
	for i := 0; i < nHomes; i++ {
		listing := xmltree.Elem("listing")
		n := 1
		for room := 0; n < detailNodes; room++ {
			rm := xmltree.Elem("room",
				xmltree.Text("name", fmt.Sprintf("room-%d-%d", i, room)),
				xmltree.Text("area", fmt.Sprintf("%d", 9+r.Intn(40))))
			n += 5
			for f := 0; f < 3 && n < detailNodes; f++ {
				rm.Children = append(rm.Children,
					xmltree.Text("feature", fmt.Sprintf("feature-%d", r.Intn(16))))
				n += 2
			}
			listing.Children = append(listing.Children, rm)
		}
		homes.Children = append(homes.Children, xmltree.Elem("home",
			xmltree.Text("zip", fmt.Sprintf("91%03d", r.Intn(zips))),
			listing,
		))
	}
	return homes
}

// DistinctZipGroupsPlan is the E14 plan over a DetailedHomes source:
// distinct home/zip pairs — whose keys digest the full home payload —
// grouped by zip, with everything but the zip projected away so the
// answer is one slim b[zip[…]] row per distinct zip. Key digestion
// dominates; rendering is negligible.
func DistinctZipGroupsPlan(src string) algebra.Op {
	gd := &algebra.GetDescendants{
		Input:  &algebra.Source{URL: src, Var: "r"},
		Parent: "r", Path: pathexpr.MustParse("home"), Out: "H",
	}
	zip := &algebra.GetDescendants{Input: gd, Parent: "H",
		Path: pathexpr.MustParse("zip._"), Out: "V"}
	d := &algebra.Distinct{
		Input: &algebra.Project{Input: zip, Keep: []string{"H", "V"}}}
	g := &algebra.GroupBy{Input: d, By: []string{"V"}, Var: "H", Out: "G"}
	return &algebra.Project{Input: g, Keep: []string{"V"}}
}

// Demo generates the named demo dataset of size n, the one a
// "demo:kind:n" source declaration of mixd or mixq stands for: kind is
// books (a store named name with n books), homes or schools (n of them
// over n/10+1 zip codes).
func Demo(kind, name string, n int) (*xmltree.Tree, error) {
	switch kind {
	case "books":
		return Books(name, n, 1), nil
	case "homes":
		homes, _ := HomesSchools(n, 0, n/10+1, 1)
		return homes, nil
	case "schools":
		_, schools := HomesSchools(0, n, n/10+1, 1)
		return schools, nil
	}
	return nil, fmt.Errorf("unknown demo dataset %q (books|homes|schools)", kind)
}
