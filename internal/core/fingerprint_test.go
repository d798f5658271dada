package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"mix/internal/algebra"
	"mix/internal/buffer"
	"mix/internal/lxp"
	"mix/internal/nav"
	"mix/internal/pathexpr"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

// Fingerprint-key tests. Operator keys, bucket keys and path stepping
// are fingerprint-backed in every configuration; the contract under
// test is that even under total fingerprint collision (every value
// hashed to one bucket) the Equal-based fallback alone keeps answers
// equal to internal/eager's.

// keyPlans returns plans exercising every fingerprint consumer:
// distinct, groupBy, difference, orderBy, and wildcard/recursive path
// descent, over the homes/schools workload.
func keyPlans() map[string]algebra.Op {
	homesZip := func() algebra.Op {
		gd := &algebra.GetDescendants{
			Input:  &algebra.Source{URL: "homesSrc", Var: "r1"},
			Parent: "r1", Path: pathexpr.MustParse("home"), Out: "H",
		}
		return &algebra.GetDescendants{Input: gd, Parent: "H",
			Path: pathexpr.MustParse("zip._"), Out: "V1"}
	}
	schoolsZip := func() algebra.Op {
		gd := &algebra.GetDescendants{
			Input:  &algebra.Source{URL: "schoolsSrc", Var: "r2"},
			Parent: "r2", Path: pathexpr.MustParse("school"), Out: "S",
		}
		return &algebra.GetDescendants{Input: gd, Parent: "S",
			Path: pathexpr.MustParse("zip._"), Out: "V2"}
	}
	return map[string]algebra.Op{
		"distinct": &algebra.Distinct{
			Input: &algebra.Project{Input: homesZip(), Keep: []string{"V1"}}},
		"groupBy": &algebra.GroupBy{
			Input: homesZip(), By: []string{"V1"}, Var: "H", Out: "G"},
		"difference": &algebra.Difference{
			Left: &algebra.Project{Input: homesZip(), Keep: []string{"V1"}},
			Right: &algebra.Project{
				Input: &algebra.Rename{Input: schoolsZip(), From: "V2", To: "V1"},
				Keep:  []string{"V1"}}},
		"orderBy": &algebra.OrderBy{Input: homesZip(), Keys: []string{"V1"}},
		"hashJoin": hashZipPlan(
			algebra.Eq(algebra.V("V1"), algebra.V("V2"))),
		"recursivePath": &algebra.GetDescendants{
			Input:  &algebra.Source{URL: "homesSrc", Var: "r1"},
			Parent: "r1", Path: pathexpr.MustParse("(home|zip)*._"), Out: "X"},
	}
}

// TestFingerprintsByteIdentical: every plan, keyed by fingerprints,
// answers byte-identically to internal/eager, whose operator keys are
// canonical strings.
func TestFingerprintsByteIdentical(t *testing.T) {
	homes, schools := workload.HomesSchools(30, 30, 5, 11)
	srcs := map[string]*xmltree.Tree{"homesSrc": homes, "schoolsSrc": schools}
	for name, plan := range keyPlans() {
		t.Run(name, func(t *testing.T) {
			e, _ := engineWith(DefaultOptions(), srcs)
			got := xmltree.MarshalXML(mustMaterialize(t, mustCompile(t, e, plan)))
			if want := eagerAnswer(t, plan, srcs); got != want {
				t.Errorf("fingerprint keys changed the answer\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// sourceKinds are the documents the fingerprint tests run their
// sources as: in-memory trees, and LXP buffers over chunked servers,
// whose values are partly the wrapper's closed fragments and partly
// copies of fragments that held a hole.
var sourceKinds = []struct {
	name string
	doc  func(*xmltree.Tree) nav.Document
}{
	{"tree", treeSource},
	{"lxp", func(t *xmltree.Tree) nav.Document {
		b, _ := buffer.New(&lxp.TreeServer{Tree: t, Chunk: 3, InlineLimit: 4}, "u")
		return b
	}},
}

// TestFingerprintsNavigationIdentical: fingerprints decide only which
// values a key holds equal, never what is navigated — with every
// fingerprint forced to collide, each source sees the same navigation
// commands as with real fingerprints.
func TestFingerprintsNavigationIdentical(t *testing.T) {
	homes, schools := workload.HomesSchools(20, 20, 4, 3)
	srcs := map[string]*xmltree.Tree{"homesSrc": homes, "schoolsSrc": schools}
	for name, plan := range keyPlans() {
		t.Run(name, func(t *testing.T) {
			for _, k := range sourceKinds {
				t.Run(k.name, func(t *testing.T) {
					eReal, cReal := engineOver(DefaultOptions(), srcs, k.doc)
					mustMaterialize(t, mustCompile(t, eReal, plan))
					var cCol map[string]*nav.CountingDoc
					withCollidingFingerprints(func() {
						var eCol *Engine
						eCol, cCol = engineOver(DefaultOptions(), srcs, k.doc)
						mustMaterialize(t, mustCompile(t, eCol, plan))
					})
					for src, c := range cReal {
						if got, want := cCol[src].Counters.Snapshot(), c.Counters.Snapshot(); got != want {
							t.Errorf("source %s: navigations with colliding fingerprints %+v, with real ones %+v",
								src, got, want)
						}
					}
				})
			}
		})
	}
}

// withCollidingFingerprints forces every structural fingerprint to one
// value for the duration of fn, so the Equal check where keys meet
// carries the entire correctness burden.
func withCollidingFingerprints(fn func()) {
	origTree, origAtom := treeFP, atomFP
	treeFP = func(*xmltree.Tree) xmltree.Fingerprint {
		return xmltree.Fingerprint{Hi: 0xdead, Lo: 0xbeef}
	}
	atomFP = func(*xmltree.Tree) xmltree.Fingerprint {
		return xmltree.Fingerprint{Hi: 0xdead, Lo: 0xbeef}
	}
	defer func() { treeFP, atomFP = origTree, origAtom }()
	fn()
}

// TestFingerprintCollisionFallback: with every value forced into one
// fingerprint bucket, answers must still equal internal/eager's — the
// Equal check where keys meet (and the full condition re-check in the
// hash join) is the only thing separating values, and it must be
// enough.
func TestFingerprintCollisionFallback(t *testing.T) {
	homes, schools := workload.HomesSchools(25, 25, 4, 17)
	srcs := map[string]*xmltree.Tree{"homesSrc": homes, "schoolsSrc": schools}
	for name, plan := range keyPlans() {
		t.Run(name, func(t *testing.T) {
			want := eagerAnswer(t, plan, srcs)
			for _, k := range sourceKinds {
				t.Run(k.name, func(t *testing.T) {
					var got string
					withCollidingFingerprints(func() {
						e, _ := engineOver(DefaultOptions(), srcs, k.doc)
						got = xmltree.MarshalXML(mustMaterialize(t, mustCompile(t, e, plan)))
					})
					if got != want {
						t.Errorf("collision fallback broke the answer\n got: %s\nwant: %s", got, want)
					}
				})
			}
		})
	}
}

// keyRows is a source of rows a[x] b[y], one per tuple (x, y).
func keyRows(tuples [][2]string) *xmltree.Tree {
	rows := make([]*xmltree.Tree, len(tuples))
	for i, tp := range tuples {
		rows[i] = xmltree.Elem("row", xmltree.Text("a", tp[0]), xmltree.Text("b", tp[1]))
	}
	return xmltree.Elem("rows", rows...)
}

// rowValues binds each row of src to $R and its a and b values to $A
// and $B.
func rowValues(src string) algebra.Op {
	var op algebra.Op = &algebra.GetDescendants{Input: &algebra.Source{URL: src, Var: "r"},
		Parent: "r", Path: pathexpr.MustParse("row"), Out: "R"}
	for _, v := range []string{"A", "B"} {
		op = &algebra.GetDescendants{Input: op, Parent: "R",
			Path: pathexpr.MustParse(strings.ToLower(v) + "._"), Out: v}
	}
	return op
}

// orders returns every ordering of tuples.
func orders(tuples [][2]string) [][][2]string {
	if len(tuples) <= 1 {
		return [][][2]string{tuples}
	}
	var out [][][2]string
	for i := range tuples {
		rest := slices.Delete(slices.Clone(tuples), i, i+1)
		for _, o := range orders(rest) {
			out = append(out, append([][2]string{tuples[i]}, o...))
		}
	}
	return out
}

// TestCollidingKeysMeetByEqual: with every fingerprint forced to one
// value, every key meets every other, so only the Equal check where
// keys meet tells tuples apart. Equal and unequal tuples, interleaved
// in every order, through groupBy (GroupCache on and off), distinct and
// difference, keyed on one variable and on two: equal tuples form one
// group or survivor, unequal ones stay apart, and every answer equals
// internal/eager's. Equal values are distinct nodes of the source, so
// no pointer identity decides it.
func TestCollidingKeysMeetByEqual(t *testing.T) {
	tuples := [][2]string{{"1", "x"}, {"2", "x"}, {"1", "x"}, {"1", "y"}, {"2", "x"}}
	right := keyRows([][2]string{{"3", "x"}, {"1", "y"}})
	noGroupCache := DefaultOptions()
	noGroupCache.GroupCache = false
	for _, by := range [][]string{{"A"}, {"A", "B"}} {
		distinctTuples := map[[2]string]bool{}
		for _, tp := range tuples {
			if len(by) == 1 {
				tp[1] = ""
			}
			distinctTuples[tp] = true
		}
		plans := map[string]struct {
			plan   algebra.Op
			opts   Options
			output int // bindings in the answer; -1: left to eager alone
		}{
			"groupBy": {&algebra.GroupBy{Input: rowValues("L"), By: by, Var: "R", Out: "G"},
				DefaultOptions(), len(distinctTuples)},
			"groupBy without GroupCache": {&algebra.GroupBy{Input: rowValues("L"), By: by, Var: "R", Out: "G"},
				noGroupCache, len(distinctTuples)},
			"distinct": {&algebra.Distinct{Input: &algebra.Project{Input: rowValues("L"), Keep: by}},
				DefaultOptions(), len(distinctTuples)},
			"difference": {&algebra.Difference{
				Left:  &algebra.Project{Input: rowValues("L"), Keep: by},
				Right: &algebra.Project{Input: rowValues("Rt"), Keep: by}}, DefaultOptions(), -1},
		}
		for name, p := range plans {
			t.Run(fmt.Sprintf("%s by %v", name, by), func(t *testing.T) {
				for _, order := range orders(tuples) {
					srcs := map[string]*xmltree.Tree{"L": keyRows(order), "Rt": right}
					want := eagerAnswer(t, p.plan, srcs)
					var got *xmltree.Tree
					withCollidingFingerprints(func() {
						e, _ := engineWith(p.opts, srcs)
						got = mustMaterialize(t, mustCompile(t, e, p.plan))
					})
					if xmltree.MarshalXML(got) != want {
						t.Fatalf("order %v: answer\n%s\nwant\n%s", order, xmltree.MarshalXML(got), want)
					}
					if n := len(got.Children); p.output >= 0 && n != p.output {
						t.Fatalf("order %v: %d bindings, want %d", order, n, p.output)
					}
				}
			})
		}
	}
}

// TestSharedSourceConcurrentColdPlans: two engines over the same
// in-memory source documents compile and drain the cold med-home plan
// at once. Key values are the sources' own nodes, so both memoize
// fingerprints on the same trees (run it under -race). Both answers
// equal internal/eager's.
func TestSharedSourceConcurrentColdPlans(t *testing.T) {
	homes, schools := workload.HomesSchools(60, 40, 8, 5)
	srcs := map[string]*xmltree.Tree{"homesSrc": homes, "schoolsSrc": schools}
	plan := workload.HomesSchoolsPlan()
	want := eagerAnswer(t, plan, srcs)
	view := mustPrepare(t, plan, "")
	hd, sd := nav.NewTreeDoc(homes), nav.NewTreeDoc(schools)
	var wg sync.WaitGroup
	got := make([]string, 2)
	errs := make([]error, len(got))
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := New(DefaultOptions())
			e.Register("homesSrc", nav.NewCountingDoc(hd))
			e.Register("schoolsSrc", nav.NewCountingDoc(sd))
			q, err := e.Compile(view)
			if err != nil {
				errs[i] = err
				return
			}
			tree, err := q.Materialize()
			got[i], errs[i] = xmltree.MarshalXML(tree), err
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("engine %d: %v", i, errs[i])
		}
		if got[i] != want {
			t.Errorf("engine %d answered\n%s\nwant\n%s", i, got[i], want)
		}
	}
}

// TestHashJoinFingerprintIdenticalToNested: the fingerprint-bucketed
// hash join (equi, residual) and its nested-loops fallback (masked)
// must answer byte for byte like internal/eager, which joins by nested
// loops over every pair.
func TestHashJoinFingerprintIdenticalToNested(t *testing.T) {
	homes, schools := workload.HomesSchools(40, 40, 7, 21)
	srcs := map[string]*xmltree.Tree{"homesSrc": homes, "schoolsSrc": schools}
	conds := map[string]algebra.Cond{
		"equi": algebra.Eq(algebra.V("V1"), algebra.V("V2")),
		"residual": &algebra.And{
			L: algebra.Eq(algebra.V("V1"), algebra.V("V2")),
			R: &algebra.Cmp{Op: algebra.OpNeq, L: algebra.V("H"), R: algebra.V("S")}},
		"masked": maskedCond{algebra.Eq(algebra.V("V1"), algebra.V("V2"))},
	}
	for name, cond := range conds {
		t.Run(name, func(t *testing.T) {
			plan := hashZipPlan(cond)
			e, _ := engineWith(DefaultOptions(), srcs)
			got := xmltree.MarshalXML(mustMaterialize(t, mustCompile(t, e, plan)))
			if want := eagerAnswer(t, plan, srcs); got != want {
				t.Errorf("fingerprint hash join diverged\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// TestAtomFingerprintBridgesElementLeaf: an equi-join between an
// element value and a leaf value whose atoms agree must pair them —
// the reason bucket keys hash atoms, not structure.
func TestAtomFingerprintBridgesElementLeaf(t *testing.T) {
	// left values are zip[92093]-style elements, right values raw leaves.
	left := xmltree.Elem("l", xmltree.Text("zip", "92093"), xmltree.Text("zip", "91220"))
	right := xmltree.Elem("r", xmltree.Leaf("92093"), xmltree.Leaf("00000"))
	srcs := map[string]*xmltree.Tree{"L": left, "R": right}
	plan := &algebra.Join{
		Left: &algebra.GetDescendants{
			Input:  &algebra.Source{URL: "L", Var: "rl"},
			Parent: "rl", Path: pathexpr.MustParse("zip"), Out: "X"},
		Right: &algebra.GetDescendants{
			Input:  &algebra.Source{URL: "R", Var: "rr"},
			Parent: "rr", Path: pathexpr.MustParse("_"), Out: "Y"},
		Cond: algebra.Eq(algebra.V("X"), algebra.V("Y")),
	}
	e, _ := engineWith(DefaultOptions(), srcs)
	got := mustMaterialize(t, mustCompile(t, e, plan))
	if want := eagerAnswer(t, plan, srcs); xmltree.MarshalXML(got) != want {
		t.Fatalf("element/leaf bridging broke: got %s want %s", xmltree.MarshalXML(got), want)
	}
	// Exactly one pair: zip[92093] with leaf 92093.
	if n := got.CountLabel("b"); n != 1 {
		t.Fatalf("expected 1 joined pair, got %d", n)
	}
}

// BenchmarkDistinctDetailKeys: distinct+groupBy whose keys digest large
// home payloads while the answer stays one slim row per zip, so key
// construction dominates the allocation profile.
func BenchmarkDistinctDetailKeys(b *testing.B) {
	homes := workload.DetailedHomes(160, 200, 12, 7)
	srcs := map[string]*xmltree.Tree{"homesSrc": homes}
	view := mustPrepare(b, workload.DistinctZipGroupsPlan("homesSrc"), "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, _ := engineWith(DefaultOptions(), srcs)
		q, err := e.Compile(view)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := q.Materialize(); err != nil {
			b.Fatal(err)
		}
	}
}
