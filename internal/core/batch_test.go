package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"mix/internal/algebra"
	"mix/internal/nav"
	"mix/internal/pathexpr"
	"mix/internal/regioncache"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

// batchOpts is DefaultOptions with the pipeline width pinned.
func batchOpts(bs int) Options {
	o := DefaultOptions()
	o.BatchSize = bs
	return o
}

// batchPlans is the operator-coverage set for the identity tests: the
// paper's join+group plan, joins whose conditions take the hash path
// (pure equi, equi with residual conjuncts) and the nested-loops path
// (a disjunction, equi keys masked), selection (both the fused-scan and
// the general condition form), a recursive path, distinct over a union,
// difference, orderBy and a top-level groupBy — every operator class in
// one sweep.
func batchPlans() map[string]func() algebra.Op {
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
// without a region cache, at widths that straddle, divide and dwarf the
// stream lengths. With one pipeline there is no second engine to
// compare against, so the references are external: the materialized
// answer must equal internal/eager's, and the per-source navigation
// counts at every width must equal those at width 1 under the same
// configuration — the width reorders work, never adds any. With a
// region cache the query is named and answered through a fresh cache:
// the cold drain fills it, and a second query of the same plan must
// then be answered from it identically — with zero source navigations
// when the plan has a canonical cache identity.
func TestEveryConfigurationMatchesEager(t *testing.T) {
	homes, schools := workload.HomesSchools(23, 17, 5, 3)
	srcs := map[string]*xmltree.Tree{"homesSrc": homes, "schoolsSrc": schools}
	navsOf := func(counters map[string]*nav.CountingDoc) string {
		var navs []string
		for _, name := range []string{"homesSrc", "schoolsSrc"} {
			c := counters[name].Counters.Snapshot()
			navs = append(navs, fmt.Sprintf("%s d=%d r=%d f=%d sel=%d root=%d",
				name, c.Down, c.Right, c.Fetch, c.Select, c.Root))
		}
		return strings.Join(navs, "; ")
	}
	run := func(t *testing.T, mk func() algebra.Op, o Options, cached bool) (string, string) {
		e, counters := engineWith(o, srcs)
		if cached {
			e.SetRegionCache(regioncache.New(0))
		}
		q := mustCompile(t, e, mk())
		if cached {
			q.SetCacheName("v")
		}
		answer := xmltree.MarshalXML(mustMaterialize(t, q))
		navs := navsOf(counters)
		if cached {
			before := sumNavs(counters)
			again := mustCompile(t, e, mk())
			again.SetCacheName("v")
			if warm := xmltree.MarshalXML(mustMaterialize(t, again)); warm != answer {
				t.Fatalf("%+v: cached answer differs from the cold one:\n%s\nvs\n%s", o, warm, answer)
			}
			// A plan without a canonical form (maskedCond) gets an opaque,
			// per-compile cache identity, so its second query is cold.
			_, _, canonical := regioncache.Canonical(mk())
			if n := sumNavs(counters) - before; canonical && n != 0 {
				t.Fatalf("%+v: cached answer cost %d source navigations, want 0", o, n)
			}
		}
		return answer, navs
	}
	for name, mk := range batchPlans() {
		t.Run(name, func(t *testing.T) {
			want := eagerAnswer(t, mk(), srcs)
			o := DefaultOptions()
			for mask := 0; mask < 16; mask++ {
				o.JoinCache, o.PathCache = mask&1 != 0, mask&2 != 0
				o.GroupCache, o.NativeSelect = mask&4 != 0, mask&8 != 0
				for _, cached := range []bool{false, true} {
					var wantNavs string
					for _, width := range []int{1, 3, 64} {
						o.BatchSize = width
						answer, navs := run(t, mk, o, cached)
						if answer != want {
							t.Fatalf("%+v cache=%v: answer differs from eager:\n%s\nvs\n%s", o, cached, answer, want)
						}
						if width == 1 {
							wantNavs = navs
						} else if navs != wantNavs {
							t.Fatalf("%+v cache=%v: source navigations differ from width 1:\n%s\nvs\n%s",
								o, cached, navs, wantNavs)
						}
					}
				}
			}
		})
	}
}

// TestBatchFilterEmptyBatches pins the no-false-EOF rule: a filter that
// rejects whole input batches must keep pulling — an all-rejected batch
// is not end-of-stream — and a filter that rejects everything must
// still terminate with the width-1 answer (zero rows).
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
		{"sparse matches", "91000"}, // rare value: many all-rejected batches
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
			es, _ := engineWith(batchOpts(1), srcs)
			want := xmltree.MarshalXML(mustMaterialize(t, mustCompile(t, es, plan())))
			// Width 2 forces many consecutive empty filtered batches.
			eb, _ := engineWith(batchOpts(2), srcs)
			got := xmltree.MarshalXML(mustMaterialize(t, mustCompile(t, eb, plan())))
			if got != want {
				t.Fatalf("batch answer differs:\n%s\nvs\n%s", got, want)
			}
		})
	}
}

// failAfterDoc fails every navigation after the first n have succeeded
// — an error that strikes mid-stream, after a prefix of bindings has
// been produced.
type failAfterDoc struct {
	d    nav.Document
	err  error
	left *int
}

func (f failAfterDoc) step() error {
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

// TestBatchMidStreamErrorByteIdentical: an error striking after a
// prefix of source navigations must surface at the same client-visible
// position at every width — same number of answer rows reachable,
// same error. This exercises the prefix-then-error rule of bnext (a
// batch computed up to the failure is delivered before the error).
func TestBatchMidStreamErrorByteIdentical(t *testing.T) {
	homes, _ := workload.HomesSchools(12, 0, 4, 3)
	boom := errors.New("source lost mid-stream")
	plan := func() algebra.Op {
		return &algebra.Project{
			Input: &algebra.GetDescendants{
				Input: &algebra.GetDescendants{
					Input:  &algebra.Source{URL: "homesSrc", Var: "R"},
					Parent: "R", Path: pathexpr.MustParse("home"), Out: "H",
				},
				Parent: "H", Path: pathexpr.MustParse("zip._"), Out: "Z",
			},
			Keep: []string{"H", "Z"},
		}
	}
	// walk steps the answer document left to right and reports how many
	// rows were reached before the error (and the error itself).
	walk := func(t *testing.T, bs, budget int) (int, error) {
		t.Helper()
		left := budget
		e := New(batchOpts(bs))
		e.Register("homesSrc", failAfterDoc{
			d: nav.NewTreeDoc(homes), err: boom, left: &left})
		q := mustCompile(t, e, plan())
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
			cur, err = doc.Right(cur)
			if err != nil {
				return rows, err
			}
		}
		return rows, nil
	}
	// A generous budget errors nowhere; the full row count calibrates
	// the truncation budgets below.
	total, err := walk(t, 1, 1<<30)
	if err != nil || total < 4 {
		t.Fatalf("calibration walk: rows=%d err=%v", total, err)
	}
	for _, budget := range []int{1, 5, 17, 43} {
		wantRows, wantErr := walk(t, 1, budget)
		for _, bs := range []int{2, 3, 64} {
			gotRows, gotErr := walk(t, bs, budget)
			if gotRows != wantRows || !errors.Is(gotErr, boom) != !errors.Is(wantErr, boom) {
				t.Fatalf("budget=%d BatchSize=%d: rows=%d err=%v, width-1 rows=%d err=%v",
					budget, bs, gotRows, gotErr, wantRows, wantErr)
			}
		}
	}
}
