package core

import (
	"errors"
	"testing"

	"mix/internal/algebra"
	"mix/internal/nav"
	"mix/internal/pathexpr"
	"mix/internal/regioncache"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

// operatorPlans is the operator-coverage set for the identity tests:
// the paper's join+group plan, joins whose conditions take the hash path
// (pure equi, equi with residual conjuncts) and the nested-loops path
// (a disjunction, equi keys masked), selection (both the fused-scan and
// the general condition form, including one that rejects all but one
// binding and one that rejects every binding), a recursive path,
// distinct over a union, difference, orderBy and a top-level groupBy —
// every operator class in one sweep.
func operatorPlans() map[string]func() algebra.Op {
	zips := func(src, rvar, hvar, zvar, inner string) algebra.Op {
		return &algebra.GetDescendants{
			Input: &algebra.GetDescendants{
				Input:  &algebra.Source{URL: src, Var: rvar},
				Parent: rvar, Path: pathexpr.MustParse(inner), Out: hvar,
			},
			Parent: hvar, Path: pathexpr.MustParse("zip._"), Out: zvar,
		}
	}
	homeZips := func() algebra.Op { return zips("homesSrc", "R1", "H", "V1", "home") }
	schoolZips := func() algebra.Op { return zips("schoolsSrc", "R2", "S", "V2", "school") }
	projZip := func() algebra.Op {
		return &algebra.Project{Input: homeZips(), Keep: []string{"V1"}}
	}
	join := func(cond algebra.Cond) func() algebra.Op {
		return func() algebra.Op {
			return &algebra.Project{
				Input: &algebra.Join{Left: homeZips(), Right: schoolZips(), Cond: cond},
				Keep:  []string{"H", "S"},
			}
		}
	}
	eq := func() algebra.Cond { return algebra.Eq(algebra.V("V1"), algebra.V("V2")) }
	return map[string]func() algebra.Op{
		"fig4":           workload.HomesSchoolsPlan,
		"hash equi-join": join(eq()),
		"equi-join with residual": join(&algebra.And{
			L: eq(),
			R: &algebra.And{
				L: &algebra.Not{C: algebra.Eq(algebra.V("V1"), algebra.Lit("91003"))},
				R: &algebra.Cmp{Op: algebra.OpNeq, L: algebra.V("H"), R: algebra.V("S")},
			},
		}),
		"non-equi join":    join(&algebra.Or{L: eq(), R: eq()}),
		"masked equi-join": join(maskedCond{eq()}),
		"recursive path": func() algebra.Op {
			return &algebra.GetDescendants{
				Input:  &algebra.Source{URL: "homesSrc", Var: "R1"},
				Parent: "R1", Path: pathexpr.MustParse("(home|zip)*._"), Out: "X"}
		},
		"select condition": func() algebra.Op {
			return &algebra.Project{
				Input: &algebra.Select{Input: homeZips(),
					Cond: algebra.Eq(algebra.V("V1"), algebra.Lit("91000"))},
				Keep: []string{"H"},
			}
		},
		"sparse matches": func() algebra.Op {
			// One home of 23 passes: the filter pulls past long runs of
			// rejected bindings.
			return &algebra.Select{
				Input: &algebra.GetDescendants{
					Input:  &algebra.Source{URL: "homesSrc", Var: "R1"},
					Parent: "R1", Path: pathexpr.MustParse("home.addr._"), Out: "A",
				},
				Cond: algebra.Eq(algebra.V("A"), algebra.Lit("addr-17")),
			}
		},
		"no matches": func() algebra.Op {
			return &algebra.Project{
				Input: &algebra.Select{Input: homeZips(),
					Cond: algebra.Eq(algebra.V("V1"), algebra.Lit("no-such-zip"))},
				Keep: []string{"H"},
			}
		},
		"label select": func() algebra.Op {
			return &algebra.Select{
				Input: &algebra.GetDescendants{
					Input:  &algebra.Source{URL: "homesSrc", Var: "R1"},
					Parent: "R1", Path: pathexpr.MustParse("_"), Out: "H",
				},
				Cond: &algebra.LabelMatch{Var: "H", Label: "home"},
			}
		},
		"distinct over union": func() algebra.Op {
			return &algebra.Distinct{Input: &algebra.Union{
				Left: projZip(), Right: projZip()}}
		},
		"difference": func() algebra.Op {
			return &algebra.Difference{
				Left: projZip(),
				Right: &algebra.Project{
					Input: &algebra.Select{Input: homeZips(),
						Cond: algebra.Eq(algebra.V("V1"), algebra.Lit("91000"))},
					Keep: []string{"V1"},
				},
			}
		},
		"orderBy": func() algebra.Op {
			return &algebra.OrderBy{Input: projZip(), Keys: []string{"V1"}}
		},
		"groupBy": func() algebra.Op {
			return &algebra.GroupBy{Input: homeZips(),
				By: []string{"V1"}, Var: "H", Out: "G"}
		},
		"groupBy over the rest": func() algebra.Op {
			// Every remaining operator class under a group scan: with
			// GroupCache off the value lists fork all of them.
			in91000 := func() algebra.Op {
				return &algebra.Select{Input: homeZips(),
					Cond: algebra.Eq(algebra.V("V1"), algebra.Lit("91000"))}
			}
			return &algebra.GroupBy{
				Input: &algebra.Distinct{Input: &algebra.Union{
					Left: &algebra.Difference{
						Left:  &algebra.OrderBy{Input: homeZips(), Keys: []string{"V1"}},
						Right: in91000(),
					},
					Right: in91000(),
				}},
				By: []string{"V1"}, Var: "H", Out: "G",
			}
		},
	}
}

// TestEveryConfigurationMatchesEager runs every operator class under
// every combination of the paper caches and select(σ) in NC, with and
// without a region cache. With one pipeline there is no second engine
// to compare against, so the reference is external: the materialized
// answer must equal internal/eager's. With a region cache the query is
// named and answered through a fresh cache: the cold drain fills it,
// and a second query of the same plan must then be answered from it
// identically, with zero source navigations. A plan with no canonical
// form cannot be named, so it runs uncached.
func TestEveryConfigurationMatchesEager(t *testing.T) {
	homes, schools := workload.HomesSchools(23, 17, 5, 3)
	srcs := map[string]*xmltree.Tree{"homesSrc": homes, "schoolsSrc": schools}
	run := func(t *testing.T, mk func() algebra.Op, o Options, cached bool) string {
		e, counters := engineWith(o, srcs)
		if _, _, canonical := regioncache.Canonical(mk()); cached && !canonical {
			// A plan without a canonical form (maskedCond) has no cache
			// identity: Prepare rejects it under a name.
			if _, err := Prepare(mk(), "v"); err == nil {
				t.Fatalf("%+v: a named plan with no canonical form was prepared", o)
			}
			cached = false
		}
		if cached {
			e.SetRegionCache(regioncache.New(0))
		}
		name := ""
		if cached {
			name = "v"
		}
		answer := xmltree.MarshalXML(mustMaterialize(t, mustCompileAs(t, e, mk(), name)))
		if cached {
			before := sumNavs(counters)
			again := mustCompileAs(t, e, mk(), name)
			if warm := xmltree.MarshalXML(mustMaterialize(t, again)); warm != answer {
				t.Fatalf("%+v: cached answer differs from the cold one:\n%s\nvs\n%s", o, warm, answer)
			}
			if n := sumNavs(counters) - before; n != 0 {
				t.Fatalf("%+v: cached answer cost %d source navigations, want 0", o, n)
			}
		}
		return answer
	}
	for name, mk := range operatorPlans() {
		t.Run(name, func(t *testing.T) {
			want := eagerAnswer(t, mk(), srcs)
			for mask := 0; mask < 16; mask++ {
				o := Options{JoinCache: mask&1 != 0, PathCache: mask&2 != 0,
					GroupCache: mask&4 != 0, NativeSelect: mask&8 != 0}
				for _, cached := range []bool{false, true} {
					if answer := run(t, mk, o, cached); answer != want {
						t.Fatalf("%+v cache=%v: answer differs from eager:\n%s\nvs\n%s", o, cached, answer, want)
					}
				}
			}
		})
	}
}

// TestBatchFilterEmptyBatches pins the no-false-EOF rule: a filter that
// rejects long runs of input bindings must keep pulling — a rejected
// binding is not end-of-stream — and a filter that rejects everything
// must still terminate with the eager answer (zero rows).
func TestBatchFilterEmptyBatches(t *testing.T) {
	homes, _ := workload.HomesSchools(40, 0, 6, 3)
	srcs := map[string]*xmltree.Tree{"homesSrc": homes}
	zips := &algebra.GetDescendants{
		Input: &algebra.GetDescendants{
			Input:  &algebra.Source{URL: "homesSrc", Var: "R"},
			Parent: "R", Path: pathexpr.MustParse("home"), Out: "H",
		},
		Parent: "H", Path: pathexpr.MustParse("zip._"), Out: "Z",
	}
	for _, tc := range []struct {
		name, lit string
	}{
		{"sparse matches", "91000"}, // rare value: long runs of rejected bindings
		{"no matches", "no-such-zip"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := func() algebra.Op {
				return &algebra.Project{
					Input: &algebra.Select{Input: zips,
						Cond: algebra.Eq(algebra.V("Z"), algebra.Lit(tc.lit))},
					Keep: []string{"H"},
				}
			}
			want := eagerAnswer(t, plan(), srcs)
			e, _ := engineWith(DefaultOptions(), srcs)
			got := xmltree.MarshalXML(mustMaterialize(t, mustCompile(t, e, plan())))
			if got != want {
				t.Fatalf("answer differs from eager:\n%s\nvs\n%s", got, want)
			}
		})
	}
}

// failAfterDoc fails every navigation after the first n have succeeded
// — an error that strikes mid-stream, after a prefix of bindings has
// been produced. calls counts every navigation attempted.
type failAfterDoc struct {
	d     nav.Document
	err   error
	left  *int
	calls *int
}

func (f failAfterDoc) step() error {
	*f.calls++
	if *f.left <= 0 {
		return f.err
	}
	*f.left--
	return nil
}

func (f failAfterDoc) Root() (nav.ID, error) {
	if err := f.step(); err != nil {
		return nil, err
	}
	return f.d.Root()
}

func (f failAfterDoc) Down(p nav.ID) (nav.ID, error) {
	if err := f.step(); err != nil {
		return nil, err
	}
	return f.d.Down(p)
}

func (f failAfterDoc) Right(p nav.ID) (nav.ID, error) {
	if err := f.step(); err != nil {
		return nil, err
	}
	return f.d.Right(p)
}

func (f failAfterDoc) Fetch(p nav.ID) (string, error) {
	if err := f.step(); err != nil {
		return "", err
	}
	return f.d.Fetch(p)
}

// TestMidStreamErrorMemoized: an error striking after a prefix of
// source navigations surfaces at a client-visible position that only
// moves later as the source allows more navigations, and the top log
// memoizes it there — a second walk over the same compiled query
// reaches the same rows and the same error without navigating the
// source again.
func TestMidStreamErrorMemoized(t *testing.T) {
	homes, _ := workload.HomesSchools(12, 0, 4, 3)
	boom := errors.New("source lost mid-stream")
	plan := &algebra.Project{
		Input: &algebra.GetDescendants{
			Input: &algebra.GetDescendants{
				Input:  &algebra.Source{URL: "homesSrc", Var: "R"},
				Parent: "R", Path: pathexpr.MustParse("home"), Out: "H",
			},
			Parent: "H", Path: pathexpr.MustParse("zip._"), Out: "Z",
		},
		Keep: []string{"H", "Z"},
	}
	// walk steps the answer document left to right and reports how many
	// rows were reached before the error (and the error itself).
	walk := func(q *Query) (int, error) {
		doc := q.Document()
		root, err := doc.Root()
		if err != nil {
			return 0, err
		}
		cur, err := doc.Down(root)
		if err != nil {
			return 0, err
		}
		rows := 0
		for cur != nil {
			rows++
			if cur, err = doc.Right(cur); err != nil {
				return rows, err
			}
		}
		return rows, nil
	}
	compile := func(budget int) (*Query, *int) {
		left, calls := budget, new(int)
		e := New(DefaultOptions())
		e.Register("homesSrc", failAfterDoc{
			d: nav.NewTreeDoc(homes), err: boom, left: &left, calls: calls})
		return mustCompile(t, e, plan), calls
	}
	// A generous budget errors nowhere; it calibrates the truncation
	// budgets below, all of which must strike before the end.
	q, calls := compile(1 << 30)
	total, err := walk(q)
	if err != nil || total < 4 || *calls <= 43 {
		t.Fatalf("calibration walk: rows=%d err=%v navigations=%d", total, err, *calls)
	}
	prev := 0
	for _, budget := range []int{1, 5, 17, 43} {
		q, calls := compile(budget)
		rows, err := walk(q)
		if !errors.Is(err, boom) || rows < prev || rows >= total {
			t.Fatalf("budget=%d: rows=%d err=%v (previous budget reached %d of %d rows)",
				budget, rows, err, prev, total)
		}
		prev = rows
		navs := *calls
		again, err2 := walk(q)
		if again != rows || !errors.Is(err2, boom) || *calls != navs {
			t.Fatalf("budget=%d: second walk rows=%d err=%v after %d more navigations, first rows=%d",
				budget, again, err2, *calls-navs, rows)
		}
	}
}
