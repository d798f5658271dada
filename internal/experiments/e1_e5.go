package experiments

import (
	"fmt"

	"mix/internal/algebra"
	"mix/internal/buffer"
	"mix/internal/core"
	"mix/internal/eager"
	"mix/internal/lxp"
	"mix/internal/nav"
	"mix/internal/relational"
	"mix/internal/workload"
	"mix/internal/wrapper"
	"mix/internal/xmltree"
)

// --- shared measurement helpers ----------------------------------------

// lazyRun compiles plan over tree sources and returns the compiled
// query plus per-source counters.
func lazyRun(opts core.Options, srcs map[string]*xmltree.Tree, plan algebra.Op) (*core.Query, map[string]*nav.CountingDoc) {
	e := core.New(opts)
	counters := map[string]*nav.CountingDoc{}
	for name, t := range srcs {
		cd := nav.NewCountingDoc(nav.NewTreeDoc(t))
		counters[name] = cd
		e.Register(name, cd)
	}
	v, err := core.Prepare(plan, "")
	if err != nil {
		panic(fmt.Sprintf("experiments: prepare: %v", err))
	}
	q, err := e.Compile(v)
	if err != nil {
		panic(fmt.Sprintf("experiments: compile: %v", err))
	}
	return q, counters
}

func totalNavs(counters map[string]*nav.CountingDoc) int64 {
	var n int64
	for _, c := range counters {
		n += c.Counters.Navigations()
	}
	return n
}

// firstLabelCost measures the source navigations needed for the client
// navigation d,f on the answer root (the first-result probe of
// Example 1).
func firstLabelCost(opts core.Options, srcs map[string]*xmltree.Tree, plan algebra.Op) int64 {
	q, counters := lazyRun(opts, srcs, plan)
	if _, err := nav.Labels(q.Document(), 1); err != nil {
		panic(err)
	}
	return totalNavs(counters)
}

// e1Sources builds the three Example 1 sources at size n: s1 with
// sparse 'a' labels (1 in 50), s2 a plain list, s3 people with ages.
func e1Sources(n int) map[string]*xmltree.Tree {
	s1 := xmltree.Elem("r")
	for i := 0; i < n; i++ {
		label := "x"
		if i%50 == 49 {
			label = "a"
		}
		s1.Children = append(s1.Children, xmltree.Text(label, fmt.Sprintf("%d", i)))
	}
	s3 := xmltree.Elem("r")
	for i := 0; i < n; i++ {
		s3.Children = append(s3.Children,
			xmltree.Elem("p", xmltree.Text("age", fmt.Sprintf("%d", (i*7919)%n))))
	}
	return map[string]*xmltree.Tree{
		"s1": s1,
		"s2": workload.FlatList(n, "y"),
		"s3": s3,
	}
}

// E1Browsability measures the three browsability classes of Example 1:
// source navigations required to answer the client navigation d,f on
// each view, as the source size grows.
func E1Browsability() Table {
	t := Table{
		ID:    "E1",
		Title: "Browsability classes (Example 1, Definition 2)",
		Claim: "q_conc is bounded browsable (O(1) source navs per client nav); " +
			"the selection q_sigma is unbounded browsable (cost depends on the data, " +
			"here the first match sits 50 elements in); reordering is unbrowsable " +
			"(the whole list must be read before the first answer).",
		Expect:  "q_conc flat; q_sigma flat but data-dependent (≈ first-match position); q_ord grows linearly with N.",
		Headers: []string{"N", "q_conc navs", "q_sigma navs", "q_ord navs", "static class (conc/sigma/ord)"},
	}
	classes := func() string {
		c1, _ := algebra.Classify(workload.ConcPlan("s1", "s2"), false)
		c2, _ := algebra.Classify(workload.SelectionPlan("s1", "a"), false)
		c3, _ := algebra.Classify(workload.ReorderPlan("s3", "age._"), false)
		return fmt.Sprintf("%s / %s / %s", c1, c2, c3)
	}()
	for _, n := range []int{100, 1_000, 10_000, 100_000} {
		srcs := e1Sources(n)
		t.Rows = append(t.Rows, []string{
			itoa(int64(n)),
			itoa(firstLabelCost(core.DefaultOptions(), srcs, workload.ConcPlan("s1", "s2"))),
			itoa(firstLabelCost(core.DefaultOptions(), srcs, workload.SelectionPlan("s1", "a"))),
			itoa(firstLabelCost(core.DefaultOptions(), srcs, workload.ReorderPlan("s3", "age._"))),
			classes,
		})
	}
	return t
}

// glance navigates the first k med_homes superficially (home + first
// school), the Web interaction pattern of Section 1.
func glance(doc nav.Document, k int) error {
	root, err := doc.Root()
	if err != nil {
		return err
	}
	mh, err := doc.Down(root)
	if err != nil {
		return err
	}
	for i := 0; mh != nil && i < k; i++ {
		home, err := doc.Down(mh)
		if err != nil {
			return err
		}
		if home != nil {
			if _, err := nav.Subtree(doc, home); err != nil {
				return err
			}
			school, err := doc.Right(home)
			if err != nil {
				return err
			}
			if school != nil {
				if _, err := nav.Subtree(doc, school); err != nil {
					return err
				}
			}
		}
		mh, err = doc.Right(mh)
		if err != nil {
			return err
		}
	}
	return nil
}

// E2LazyVsEager compares the navigation-driven evaluation against the
// materializing baseline on the running example, for a user who
// glances at the first k results versus one who reads everything.
func E2LazyVsEager() Table {
	t := Table{
		ID:    "E2",
		Title: "Lazy vs. materializing evaluation (Section 1)",
		Claim: "Current mediators materialize the full query result; in Web scenarios " +
			"where the user navigates only the first few results, demand-driven " +
			"evaluation must touch only the needed part of the sources.",
		Expect: "with a fixed inner source, the lazy glance stays ≈ flat as the homes " +
			"source grows (only the first few homes and one inner scan are touched); " +
			"eager grows linearly with N regardless of k.",
		Headers: []string{"N homes", "lazy glance k=3", "lazy full", "eager (any k)"},
	}
	const schoolsN, zips = 300, 30
	for _, n := range []int{500, 2_000, 5_000} {
		homes, schools := workload.HomesSchools(n, schoolsN, zips, 42)
		srcs := map[string]*xmltree.Tree{"homesSrc": homes, "schoolsSrc": schools}

		q, counters := lazyRun(core.DefaultOptions(), srcs, workload.HomesSchoolsPlan())
		if err := glance(q.Document(), 3); err != nil {
			panic(err)
		}
		lazyGlance := totalNavs(counters)

		q2, counters2 := lazyRun(core.DefaultOptions(), srcs, workload.HomesSchoolsPlan())
		if _, err := q2.Materialize(); err != nil {
			panic(err)
		}
		lazyFull := totalNavs(counters2)

		ev := eager.New()
		ch := nav.NewCountingDoc(nav.NewTreeDoc(homes))
		cs := nav.NewCountingDoc(nav.NewTreeDoc(schools))
		ev.Register("homesSrc", ch)
		ev.Register("schoolsSrc", cs)
		if _, err := ev.Eval(workload.HomesSchoolsPlan()); err != nil {
			panic(err)
		}
		eagerCost := ch.Counters.Navigations() + cs.Counters.Navigations()

		t.Rows = append(t.Rows, []string{
			itoa(int64(n)), itoa(lazyGlance), itoa(lazyFull), itoa(eagerCost),
		})
	}
	return t
}

// E3SelectCommand measures the effect of extending NC with select(σ):
// the label-selection view becomes bounded browsable.
func E3SelectCommand() Table {
	t := Table{
		ID:    "E3",
		Title: "The select(σ) navigation command (Section 2)",
		Claim: "If NC includes the sibling selection select(σ), the selection view of " +
			"Example 1 becomes bounded browsable: one source command suffices to " +
			"retrieve the next child satisfying σ.",
		Expect: "without select(σ) the cost of reading all matches ≈ N (the scan is " +
			"mediated command by command); with it, ≈ number of matches.",
		Headers: []string{"N", "matches", "navs NC={d,r,f}", "navs NC+select", "select cmds"},
	}
	for _, n := range []int{500, 5_000, 50_000} {
		srcs := e1Sources(n)
		matches := srcs["s1"].CountLabel("a")
		plan := workload.SelectionPlan("s1", "a")

		q, counters := lazyRun(core.DefaultOptions(), srcs, plan)
		if _, err := q.Materialize(); err != nil {
			panic(err)
		}
		without := totalNavs(counters)

		optSel := core.Options{JoinCache: true, PathCache: true, GroupCache: true, NativeSelect: true}
		q2, counters2 := lazyRun(optSel, srcs, plan)
		if _, err := q2.Materialize(); err != nil {
			panic(err)
		}
		with := totalNavs(counters2)
		selCmds := counters2["s1"].Counters.Select.Load()

		t.Rows = append(t.Rows, []string{
			itoa(int64(n)), itoa(int64(matches)), itoa(without), itoa(with), itoa(selCmds),
		})
	}
	return t
}

// E4Granularity measures the buffer/LXP reconciliation of Section 4:
// LXP messages and bytes for a full scan of a relational source, as the
// wrapper's tuples-per-fill parameter n varies.
func E4Granularity() Table {
	t := Table{
		ID:    "E4",
		Title: "Source granularity via LXP chunking (Section 4, relational wrapper)",
		Claim: "Returning n tuples in the first fill, and growing a scan's continuations " +
			"n, 2n, 4n, 4n, … (lxp.ChunkAt), lets the wrapper control granularity: " +
			"messages drop ≈ 4n-fold while the transferred bytes stay roughly flat, " +
			"and attribute-level navigation is served from the buffer.",
		Expect: "fills ≈ R/(4n) + 2 while R ≫ 4n (1 once n ≥ R: the database fill carries the first chunk); bytes roughly constant; " +
			"tuple fetches = R regardless of n.",
		Headers: []string{"chunk n", "LXP fills", "LXP msgs", "bytes", "tuple fetches"},
	}
	const rows = 1000
	for _, chunk := range []int{1, 10, 100, 1000} {
		db := relational.NewDB("db")
		tb := db.Create("t", "id", "val")
		for i := 0; i < rows; i++ {
			tb.MustInsert(fmt.Sprintf("%d", i), fmt.Sprintf("v%d", i))
		}
		cs := lxp.NewCounting(&wrapper.Relational{DB: db, ChunkRows: chunk})
		b, err := buffer.New(cs, "db")
		if err != nil {
			panic(err)
		}
		if _, err := nav.Materialize(b); err != nil {
			panic(err)
		}
		s := cs.Counters.Snapshot()
		t.Rows = append(t.Rows, []string{
			itoa(int64(chunk)), itoa(s.Fills), itoa(s.Msgs), itoa(s.Bytes),
			itoa(db.Counters.Tuples.Load()),
		})
	}
	return t
}

// E5PartialExploration measures the allbooks scenario of the
// introduction: the fraction of two paged web catalogs fetched when the
// user browses only the first k hits of a subject query.
func E5PartialExploration() Table {
	t := Table{
		ID:    "E5",
		Title: "Partial exploration of Web sources (Section 1, allbooks)",
		Claim: "Materializing the answer of a broad Web query is not an option; " +
			"producing results as the user navigates bounds the source access by " +
			"the part of the answer actually explored.",
		Expect: "pages fetched grows with k (the pages covering the first k matches, " +
			"plus what is left of the grown fill that reached them: at most 4 pages per fill) " +
			"and reaches the full catalog only for the eager baseline.",
		Headers: []string{"k hits read", "pages fetched", "total pages", "eager pages"},
	}
	const n, pageSize = 5_000, 25
	totalPages := (n + pageSize - 1) / pageSize
	for _, k := range []int{1, 5, 20, 100} {
		web := &wrapper.Web{Name: "amazon", Catalog: workload.Books("az", n, 1), PageSize: pageSize}
		b, err := buffer.New(web, "amazon")
		if err != nil {
			panic(err)
		}
		e := core.New(core.DefaultOptions())
		e.Register("amazon", b)
		plan := singleSourceBooks("amazon", "databases")
		v, err := core.Prepare(plan, "")
		if err != nil {
			panic(err)
		}
		q, err := e.Compile(v)
		if err != nil {
			panic(err)
		}
		if _, err := nav.ExploreFirst(q.Document(), k); err != nil {
			panic(err)
		}
		lazyPages := web.Pages.Load()

		// Eager baseline: materializes the whole catalog.
		web2 := &wrapper.Web{Name: "amazon", Catalog: workload.Books("az", n, 1), PageSize: pageSize}
		b2, err := buffer.New(web2, "amazon")
		if err != nil {
			panic(err)
		}
		ev := eager.New()
		ev.Register("amazon", b2)
		if _, err := ev.Eval(plan); err != nil {
			panic(err)
		}

		t.Rows = append(t.Rows, []string{
			itoa(int64(k)), itoa(lazyPages), itoa(int64(totalPages)), itoa(web2.Pages.Load()),
		})
	}
	return t
}

// singleSourceBooks is the allbooks plan over one seller.
func singleSourceBooks(src, subject string) algebra.Op {
	gd := &algebra.GetDescendants{
		Input:  &algebra.Source{URL: src, Var: "r"},
		Parent: "r", Path: mustPath("book"), Out: "B",
	}
	sub := &algebra.GetDescendants{Input: gd, Parent: "B",
		Path: mustPath("subject._"), Out: "SUBJ"}
	sel := &algebra.Select{Input: sub,
		Cond: algebra.Eq(algebra.V("SUBJ"), algebra.Lit(subject))}
	grp := &algebra.GroupBy{Input: sel, By: nil, Var: "B", Out: "BS"}
	ans := &algebra.CreateElement{Input: grp,
		Label: algebra.LabelSpec{Const: "hits"}, Children: "BS", Out: "A"}
	return &algebra.TupleDestroy{Input: ans, Var: "A"}
}
