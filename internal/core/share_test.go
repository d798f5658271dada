package core

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"

	"mix/internal/algebra"
	"mix/internal/nav"
	"mix/internal/pathexpr"
	"mix/internal/regioncache"
	"mix/internal/trace"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

// The cold-compute join + groupBy templates: one literal each, outside
// the source-access chains.
const (
	medHomeText = `CONSTRUCT <answer> <med_home> $H $S {$S} </med_home> {$H} </answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1 AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2 AND $V1 > "%d"`
	bySchoolText = `CONSTRUCT <byschool> <sch> $S $H {$H} </sch> {$S} </byschool> {}
WHERE schoolsSrc schools.school $S AND $S zip._ $V2 AND homesSrc homes.home $H AND $H zip._ $V1 AND $V1 = $V2 AND $V2 > "%d"`
	// by-zip: a groupBy directly over a σ on a shared chain.
	byZipText = `CONSTRUCT <zips> <z> $V $H {$H} </z> {$V} </zips> {}
WHERE homesSrc homes.home $H AND $H zip._ $V AND $V > "%d"`
)

// literalView prepares the rewritten plan of text with lit bound.
func literalView(tb testing.TB, text string, lit int, name string) *View {
	tb.Helper()
	return mustPrepare(tb, algebra.Rewrite(translateQ(tb, fmt.Sprintf(text, lit))), name)
}

// walkAnswers fetches the answer root and its first k children (every
// child for k < 0), one Down or Right and one Fetch each: the drain of
// the pipeline a client's scan of the answer causes, without exploring
// the children's content.
func walkAnswers(tb testing.TB, doc nav.Document, k int) {
	tb.Helper()
	root, err := doc.Root()
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := doc.Fetch(root); err != nil {
		tb.Fatal(err)
	}
	cur, err := doc.Down(root)
	for i := 0; cur != nil && i != k; i++ {
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := doc.Fetch(cur); err != nil {
			tb.Fatal(err)
		}
		cur, err = doc.Right(cur)
	}
	if err != nil {
		tb.Fatal(err)
	}
}

// sharedCount returns the number of inputs e publishes.
func sharedCount(e *Engine) int {
	e.shareMu.Lock()
	defer e.shareMu.Unlock()
	return len(e.shared)
}

// TestSecondLiteralReadsSharedInputs: med-home's schools side names no
// literal, so a second literal on the same engine pays no schoolsSrc
// navigation, neither to its first answer nor on a full scan of the
// answer; the homes side is shared too, so it pays no homesSrc
// navigation either. The first literal pays what it pays on an engine
// that shares nothing. Every answer equals internal/eager's.
func TestSecondLiteralReadsSharedInputs(t *testing.T) {
	homes, schools := workload.HomesSchools(120, 60, 30, 42)
	trees := map[string]*xmltree.Tree{"homesSrc": homes, "schoolsSrc": schools}
	lits := []int{91003, 91010, 91020}
	type cost struct{ homes, schools int64 }
	// run scans v's answer on e, to its first answer and then in full,
	// and checks the answer.
	run := func(e *Engine, counters map[string]*nav.CountingDoc, v *View) (first, full cost) {
		t.Helper()
		q, err := e.Compile(v)
		if err != nil {
			t.Fatal(err)
		}
		h, s := counters["homesSrc"].Counters, counters["schoolsSrc"].Counters
		h0, s0 := h.Navigations(), s.Navigations()
		doc := q.Document()
		walkAnswers(t, doc, 1)
		first = cost{h.Navigations() - h0, s.Navigations() - s0}
		walkAnswers(t, doc, -1)
		full = cost{h.Navigations() - h0, s.Navigations() - s0}
		got, err := nav.Materialize(doc)
		if err != nil {
			t.Fatal(err)
		}
		if want := eagerAnswer(t, v.Plan(), trees); xmltree.MarshalXML(got) != want {
			t.Fatalf("answer differs from eager:\n%s\nvs\n%s", xmltree.MarshalXML(got), want)
		}
		return first, full
	}

	e, counters := engineWith(DefaultOptions(), trees)
	for i, lit := range lits {
		v := literalView(t, medHomeText, lit, "")
		first, full := run(e, counters, v)
		if i > 0 {
			if first != (cost{}) || full != (cost{}) {
				t.Errorf("literal %d: first answer %+v, full scan %+v navigations, want none", lit, first, full)
			}
			continue
		}
		private, pc := engineWith(DefaultOptions(), trees)
		private.share = false
		pFirst, pFull := run(private, pc, v)
		if first != pFirst || full != pFull {
			t.Errorf("first literal: first answer %+v, full scan %+v navigations; an engine sharing nothing pays %+v, %+v",
				first, full, pFirst, pFull)
		}
		if first.schools == 0 {
			t.Fatal("the first literal's first answer read no school: the test shows nothing")
		}
	}
	if n := sharedCount(e); n != 2 {
		t.Errorf("%d shared inputs after three literals of one plan, want its 2 chains", n)
	}
}

// secondLiteralAllocs bounds the allocations of a med-home literal on
// an engine whose shared inputs an earlier literal derived in full:
// its compile and a full scan of its answer (walkAnswers), over the
// sources of TestColdJoinGroupByAllocs. It measures 4 774 (Go 1.24,
// amd64); the bound adds six, as coldJoinGroupByAllocs does. While
// operator keys were strings made exact by a per-query keyspace, it
// measured 6 114. The same scan on an engine that shares nothing made
// 8 983 then.
const secondLiteralAllocs = 4774 + 6

// TestSecondLiteralAllocs pins the allocations of a literal that reads
// its chains and its join index from the engine.
func TestSecondLiteralAllocs(t *testing.T) {
	homes, schools := workload.HomesSchools(400, 200, 200, 42)
	e := New(DefaultOptions())
	e.Register("homesSrc", nav.NewTreeDoc(homes))
	e.Register("schoolsSrc", nav.NewTreeDoc(schools))
	// AllocsPerRun makes one warm-up call on top of the measured runs;
	// each call compiles a literal no earlier one had.
	const runs = 10
	views := make([]*View, runs+2)
	for i := range views {
		views[i] = literalView(t, medHomeText, 91000+i, "")
	}
	q, err := e.Compile(views[0])
	if err != nil {
		t.Fatal(err)
	}
	walkAnswers(t, q.Document(), -1)
	n := 1
	allocs := testing.AllocsPerRun(runs, func() {
		q, err := e.Compile(views[n])
		n++
		if err != nil {
			t.Fatal(err)
		}
		walkAnswers(t, q.Document(), -1)
	})
	if allocs > secondLiteralAllocs {
		t.Errorf("a second med-home literal allocates %v times, bound %d", allocs, secondLiteralAllocs)
	}
}

// TestSharedInputsMatchEager: every plan of the operator sweep, each
// compiled and drained twice on one engine, so later plans read the
// chains earlier ones derived (the sweep's plans name the same
// zip chains), answers as internal/eager does. Hash and nested-loops
// joins over a shared inner and groupBy, distinct and difference keying
// shared bindings are among them. With every value forced into one
// fingerprint, every key of every plan is one value, so only the Equal
// check where keys meet tells zips apart: the sweep starts with a
// groupBy that keys only the 91000 bindings, and a later groupBy over
// every zip that trusted a key would file every zip under the first.
func TestSharedInputsMatchEager(t *testing.T) {
	homes, schools := workload.HomesSchools(23, 17, 5, 3)
	srcs := map[string]*xmltree.Tree{"homesSrc": homes, "schoolsSrc": schools}
	plans := operatorPlans()
	names := append([]string{"groupBy of one zip"}, slices.Sorted(maps.Keys(plans))...)
	plans[names[0]] = func() algebra.Op {
		g := plans["groupBy"]().(*algebra.GroupBy)
		g.Input = &algebra.Select{Input: g.Input, Cond: algebra.Eq(algebra.V("V1"), algebra.Lit("91000"))}
		return g
	}
	want := map[string]string{}
	for _, name := range names {
		want[name] = eagerAnswer(t, plans[name](), srcs)
	}
	sweep := func(t *testing.T) {
		e, _ := engineWith(DefaultOptions(), srcs)
		for round := 0; round < 2; round++ {
			for _, name := range names {
				got := xmltree.MarshalXML(mustMaterialize(t, mustCompile(t, e, plans[name]())))
				if got != want[name] {
					t.Fatalf("round %d, %s: answer differs from eager:\n%s\nvs\n%s", round, name, got, want[name])
				}
			}
		}
		if sharedCount(e) == 0 {
			t.Fatal("the sweep shared no input")
		}
	}
	t.Run("fingerprints", sweep)
	t.Run("colliding fingerprints", func(t *testing.T) { withCollidingFingerprints(func() { sweep(t) }) })
}

// TestSharingOnlyUntracedAllCaches: an ablation engine and a traced
// query read every chain alone, so ablation counts and trace totals
// stay per query; the all-caches engine's untraced query publishes its
// chains.
func TestSharingOnlyUntracedAllCaches(t *testing.T) {
	homes, schools := workload.HomesSchools(8, 8, 3, 7)
	srcs := map[string]*xmltree.Tree{"homesSrc": homes, "schoolsSrc": schools}
	view := mustPrepare(t, workload.HomesSchoolsPlan(), "")
	for _, o := range []Options{{}, {JoinCache: true, PathCache: true}, {GroupCache: true},
		{JoinCache: true, PathCache: true, GroupCache: true, NativeSelect: true}} {
		e, _ := engineWith(o, srcs)
		q, err := e.Compile(view)
		if err != nil {
			t.Fatal(err)
		}
		mustMaterialize(t, q)
		if n := sharedCount(e); n != 0 {
			t.Errorf("%+v: %d shared inputs, want none", o, n)
		}
	}
	e, _ := engineWith(DefaultOptions(), srcs)
	q, err := e.Compile(view)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nav.Materialize(q.TracedDocument(trace.New())); err != nil {
		t.Fatal(err)
	}
	if n := sharedCount(e); n != 0 {
		t.Errorf("traced query: %d shared inputs, want none", n)
	}
	mustMaterialize(t, mustCompile(t, e, workload.HomesSchoolsPlan()))
	if n := sharedCount(e); n != 2 {
		t.Errorf("untraced query: %d shared inputs, want 2", n)
	}
}

// TestSharedInputsRetiredOnRegister: after a source is replaced, the
// next plan reads the new document and answers as internal/eager does
// over it; the inputs of the old registry version are gone.
func TestSharedInputsRetiredOnRegister(t *testing.T) {
	oldHomes, schools := workload.HomesSchools(20, 12, 4, 1)
	newHomes, _ := workload.HomesSchools(30, 0, 4, 2)
	e := New(DefaultOptions())
	e.Register("homesSrc", nav.NewTreeDoc(oldHomes))
	e.Register("schoolsSrc", nav.NewTreeDoc(schools))
	plan := workload.HomesSchoolsPlan
	before := mustCompile(t, e, plan())
	mustMaterialize(t, before)
	if n := sharedCount(e); n != 2 {
		t.Fatalf("%d shared inputs, want 2", n)
	}
	e.Register("homesSrc", nav.NewTreeDoc(newHomes))
	if n := sharedCount(e); n != 0 {
		t.Fatalf("%d shared inputs after Register, want none", n)
	}
	got := xmltree.MarshalXML(mustMaterialize(t, mustCompile(t, e, plan())))
	want := eagerAnswer(t, plan(), map[string]*xmltree.Tree{"homesSrc": newHomes, "schoolsSrc": schools})
	if got != want {
		t.Fatalf("after the source was replaced:\n%s\nwant\n%s", got, want)
	}
	// A query compiled before the replacement keeps its own inputs.
	old := eagerAnswer(t, plan(), map[string]*xmltree.Tree{"homesSrc": oldHomes, "schoolsSrc": schools})
	if again := xmltree.MarshalXML(mustMaterialize(t, before)); again != old {
		t.Fatalf("a query of the old version now answers:\n%s\nwant\n%s", again, old)
	}
}

// TestSharedInputsBounded: a flood of distinct chains leaves the
// engine's table at its cap, and the chains past the cap, on private
// inputs, still answer as internal/eager does.
func TestSharedInputsBounded(t *testing.T) {
	homes, _ := workload.HomesSchools(6, 0, 2, 7)
	srcs := map[string]*xmltree.Tree{"homesSrc": homes}
	e, _ := engineWith(DefaultOptions(), srcs)
	for i := 0; i < maxShared+10; i++ {
		plan := func() algebra.Op {
			return &algebra.GetDescendants{Input: &algebra.Source{URL: "homesSrc", Var: "R"}, Parent: "R",
				Path: pathexpr.MustParse("home.zip"), Out: fmt.Sprintf("Z%d", i)}
		}
		got := xmltree.MarshalXML(mustMaterialize(t, mustCompile(t, e, plan())))
		if want := eagerAnswer(t, plan(), srcs); got != want {
			t.Fatalf("chain %d: answer differs from eager:\n%s\nvs\n%s", i, got, want)
		}
	}
	if n := sharedCount(e); n != maxShared {
		t.Fatalf("%d shared inputs, cap %d", n, maxShared)
	}
}

// TestSharedInputsConcurrentPlans: sessions drain med-home plans for
// several literals and by-school plans on one engine with a region
// cache, all at once; a shared chain and a shared join index are read
// by many of them together (run it under -race). So do sessions of
// by-zip plans and of a distinct, each directly over a σ on a shared
// chain, which key the chain's own bindings at several literals at
// once, and sessions of an uncached plan whose chain ends in a
// dynamic-label createElement, whose lazy elements the sessions
// resolve. Every answer equals internal/eager's.
func TestSharedInputsConcurrentPlans(t *testing.T) {
	homes, schools := workload.HomesSchools(60, 40, 8, 5)
	trees := map[string]*xmltree.Tree{"homesSrc": homes, "schoolsSrc": schools}
	// Uncounted sources: a counter's atomic adds would order the
	// sessions' accesses for the race detector.
	e := New(DefaultOptions())
	for name, tree := range trees {
		e.Register(name, nav.NewTreeDoc(tree))
	}
	e.SetRegionCache(regioncache.New(0))
	var views []*View
	for i, lit := range []int{91000, 91001, 91003, 91005} {
		views = append(views, literalView(t, medHomeText, lit, "med-home"),
			literalView(t, bySchoolText, lit+i%2, "by-school"),
			literalView(t, byZipText, lit, "by-zip"),
			// The distinct zips above lit, keyed on the chain's two
			// variables: the source root and the zip.
			mustPrepare(t, &algebra.Distinct{Input: &algebra.Select{
				Input: &algebra.GetDescendants{Input: &algebra.Source{URL: "homesSrc", Var: "R"},
					Parent: "R", Path: pathexpr.MustParse("home.zip._"), Out: "V"},
				Cond: &algebra.Cmp{Op: algebra.OpGt, L: algebra.V("V"), R: algebra.Lit(fmt.Sprint(lit))},
			}}, ""))
	}
	// Each home, relabeled by its zip code.
	views = append(views, mustPrepare(t, &algebra.Project{
		Input: &algebra.CreateElement{
			Input: &algebra.GetDescendants{
				Input: &algebra.GetDescendants{
					Input:  &algebra.Source{URL: "homesSrc", Var: "R"},
					Parent: "R", Path: pathexpr.MustParse("home"), Out: "H"},
				Parent: "H", Path: pathexpr.MustParse("zip._"), Out: "Z"},
			Label: algebra.LabelSpec{Var: "Z"}, Children: "H", Out: "E"},
		Keep: []string{"E"},
	}, ""))
	want := make([]string, len(views))
	for i, v := range views {
		want[i] = eagerAnswer(t, v.Plan(), trees)
	}
	const perView = 3
	var wg sync.WaitGroup
	errs := make(chan error, len(views)*perView)
	for i, v := range views {
		for range perView {
			wg.Add(1)
			go func() {
				defer wg.Done()
				q, err := e.Compile(v)
				if err != nil {
					errs <- err
					return
				}
				// The scan drains the pipeline first, so the sessions then
				// resolve the shared values without touching an input.
				doc := q.Document()
				walkAnswers(t, doc, -1)
				got, err := nav.Materialize(doc)
				if err == nil && xmltree.MarshalXML(got) != want[i] {
					err = fmt.Errorf("view %d answered\n%s\nwant\n%s", i, xmltree.MarshalXML(got), want[i])
				}
				errs <- err
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := sharedCount(e); n != 7 {
		t.Errorf("%d shared inputs, want the 4 chains of the two join templates, the by-zip, distinct and relabeling chains", n)
	}
}
