package core

import (
	"slices"
	"strings"
	"testing"

	"mix/internal/algebra"
	"mix/internal/xmltree"
)

// FuzzContainmentSound is the soundness fuzz for the semantic cache:
// for ANY pair of queries from the E18 family — grouped construct over
// one source, optional σ-restriction, fuzz-chosen paths, comparison
// operators and literals — materializing the sub query against a cache
// primed with the super query's region must produce exactly the answer
// a fresh uncached engine produces. When the containment checker says
// "contained" the answer is rebuilt from the cached region, so any
// unsoundness (a too-eager checker, a bad run decode, a mixed-kind
// literal comparison that is not actually implied) surfaces as a
// byte-level mismatch here. When it says "not contained" the engine
// falls back to source and equality is trivial — the fuzz cannot
// false-positive.

// fuzzPaths are the group paths the fuzzer indexes into; they overlap
// pairwise in every interesting way (equal, subset via wildcard, subset
// via alternation, disjoint, different depth).
var fuzzPaths = []string{
	"bib.book", "bib._", "bib.(book|cd)", "bib.cd", "_.book", "bib.book.title",
}

// fuzzRestPaths are the σ-restriction descent paths.
var fuzzRestPaths = []string{"price._", "title._", "_._"}

var fuzzOps = []string{"<", "<=", ">", ">=", "=", "!="}

// fuzzBib mixes numeric, non-numeric and empty text values so the
// hybrid literal comparison (numeric iff both sides parse) is exercised
// across kinds — exactly where naive ordering implication breaks.
func fuzzBib() *xmltree.Tree {
	return xmltree.Elem("bib",
		xmltree.Elem("book", xmltree.Text("title", "tcp"), xmltree.Text("price", "65")),
		xmltree.Elem("book", xmltree.Text("title", "data"), xmltree.Text("price", "19")),
		xmltree.Elem("book", xmltree.Text("title", "web"), xmltree.Text("price", "9")),
		xmltree.Elem("book", xmltree.Text("title", "odd"), xmltree.Text("price", "1x")),
		xmltree.Elem("book", xmltree.Text("title", "blank"), xmltree.Text("price", "")),
		xmltree.Elem("cd", xmltree.Text("title", "sonata"), xmltree.Text("price", "10")),
		xmltree.Elem("book", xmltree.Text("title", "data"), xmltree.Text("price", "19")),
		xmltree.Elem("dvd", xmltree.Text("title", "film"), xmltree.Text("price", "100")),
	)
}

// fuzzLit sanitizes a fuzz-chosen literal so the query text stays
// parseable: the soundness property is about plan containment, not
// about the XMAS lexer surviving raw bytes.
func fuzzLit(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' ||
			r == '.' || r == '-' || r == '_' {
			b.WriteRune(r)
		}
		if b.Len() >= 8 {
			break
		}
	}
	if b.Len() == 0 {
		return "0"
	}
	return b.String()
}

// fuzzSide is one query of a fuzzed pair: group path, an optional
// σ-restriction (descent rest, comparison op with lit), an optional
// second one (descent rest2 — fuzzRestPaths2[0] compares $P again —
// with op2 and lit2), an optional cross product with a second scan of
// the source, and an optional nested construct. Indexes wrap.
type fuzzSide struct {
	path, rest, op uint8
	lit            string
	restricted     bool
	nested         bool
	rest2, op2     uint8
	lit2           string
	restricted2    bool
	joined         bool
}

// fuzzRestPaths2 are the second restriction's descents; "" restricts
// $P again, so the rewriter merges the two selects into one And.
var fuzzRestPaths2 = []string{"", "price._", "title._"}

// fuzzJoin is the second scan of a joined side: every group value is
// paired with both of fuzzBib's cd and dvd, so the answer holds each
// value twice in a row, and the rewriter pushes the restrictions below
// the join, into its left side.
const fuzzJoin = ` AND src bib.(cd|dvd) $C`

func (q fuzzSide) text() string {
	var b strings.Builder
	if q.nested {
		b.WriteString(`CONSTRUCT <answer> <r> $B {$B} </r> </answer> {} WHERE src `)
	} else {
		b.WriteString(`CONSTRUCT <r> $B {$B} </r> {} WHERE src `)
	}
	b.WriteString(fuzzPaths[int(q.path)%len(fuzzPaths)])
	b.WriteString(` $B`)
	if q.joined {
		b.WriteString(fuzzJoin)
	}
	if q.restricted {
		b.WriteString(` AND $B ` + fuzzRestPaths[int(q.rest)%len(fuzzRestPaths)] + ` $P AND $P ` +
			fuzzOps[int(q.op)%len(fuzzOps)] + ` "` + fuzzLit(q.lit) + `"`)
		if q.restricted2 {
			v := "$P"
			if r := fuzzRestPaths2[int(q.rest2)%len(fuzzRestPaths2)]; r != "" {
				v = "$Q"
				b.WriteString(` AND $B ` + r + ` $Q`)
			}
			b.WriteString(` AND ` + v + ` ` + fuzzOps[int(q.op2)%len(fuzzOps)] + ` "` + fuzzLit(q.lit2) + `"`)
		}
	}
	return b.String()
}

// addPair adds one seed: the super side cached, the sub side asked.
func addPair(f *testing.F, super, sub fuzzSide) {
	f.Add(super.path, super.rest, super.op, super.lit, super.restricted, super.nested,
		super.rest2, super.op2, super.lit2, super.restricted2, super.joined,
		sub.path, sub.rest, sub.op, sub.lit, sub.restricted, sub.nested,
		sub.rest2, sub.op2, sub.lit2, sub.restricted2, sub.joined)
}

// rewriteQ parses and translates text and rewrites the plan as the
// mediator does for every plan it caches: cascaded selects merge into
// one conjunction (R3) and selects move below joins (R1).
func rewriteQ(t testing.TB, text string) algebra.Op {
	t.Helper()
	return algebra.Rewrite(translateQ(t, text))
}

func FuzzContainmentSound(f *testing.F) {
	// restricted returns a side restricted by op and lit on price.
	restricted := func(op, lit string) fuzzSide {
		return fuzzSide{op: uint8(slices.Index(fuzzOps, op)), lit: lit, restricted: true}
	}
	// The E18 pair: unrestricted superset, σ-restricted sub.
	addPair(f, fuzzSide{lit: "20"}, restricted("<", "20"))
	// Path weakening: bib._ superset, bib.book sub, no conditions.
	addPair(f, fuzzSide{path: 1, lit: "0"}, fuzzSide{lit: "0"})
	// Alternation superset, label sub, nested construct on both sides.
	addPair(f, fuzzSide{path: 2, lit: "0", nested: true}, fuzzSide{path: 3, lit: "0", nested: true})
	// Implication between conditions: < "30" cached, < "20" asked.
	addPair(f, restricted("<", "30"), restricted("<", "20"))
	// Mixed-kind literals: numeric cached bound, non-numeric sub bound.
	addPair(f, restricted("<", "30"), fuzzSide{op: 1, lit: "1x", restricted: true})
	// NOT contained: restricted superset, unrestricted sub.
	addPair(f, restricted("<", "20"), fuzzSide{lit: "20"})
	// One pair per implication rule (cmpImplies): the cached query
	// restricts price by super, the asked one by sub. Literals differ,
	// so structural equality never decides first.
	for _, c := range []struct{ super, superLit, sub, subLit string }{
		{"<", "30", "<=", "20"},
		{"<", "30", "=", "19"},
		{"<", "30", ">", "20"}, // no rule: not implied
		{"<", "10", "<", "9"},  // numeric 9 < 10, but "9" > "10" as strings
		{"<=", "30", "<", "20"},
		{"<=", "19", "=", "19"},
		{">", "10", ">", "15"},
		{">", "10", ">=", "15"},
		{">", "10", "=", "19"},
		{">=", "10", ">", "10"},
		{">=", "19", "=", "19"},
		{"=", "19", "=", "65"},
		{"!=", "19", "!=", "65"},
		{"!=", "19", "=", "65"},
		{"!=", "65", "<", "20"},
		{"!=", "65", "<=", "20"},
		{"!=", "9", ">", "10"},
		{"!=", "9", ">=", "10"},
		// At the boundary each rule must say no: the books priced 19
		// are in sub's answer and not in super's.
		{"<", "19", "<=", "19"},
		{">", "19", ">=", "19"},
		{"!=", "19", "<=", "19"},
		{"!=", "19", ">=", "19"},
		{"=", "19.0", "=", "19"},
	} {
		addPair(f, restricted(c.super, c.superLit), restricted(c.sub, c.subLit))
	}
	// Two restrictions. On one variable the rewriter merges them into
	// one And, whose conjuncts imply super's one condition, or each of
	// super's two (in the other order), or fail to.
	and := func(op, lit, op2, lit2 string) fuzzSide {
		s := restricted(op, lit)
		s.op2, s.lit2, s.restricted2 = uint8(slices.Index(fuzzOps, op2)), lit2, true
		return s
	}
	addPair(f, restricted("<", "30"), and(">", "10", "<", "20"))
	addPair(f, and("<", "30", ">", "11"), and(">", "12", "<", "20"))
	addPair(f, and("<", "30", ">", "20"), and("<", "30", ">", "10")) // not contained
	addPair(f, and("<", "30", ">", "11"), restricted("<", "20"))     // not contained
	// On two variables: price bounded in both, title fixed in sub only,
	// or in super only (not contained).
	titled := func(s fuzzSide, lit string) fuzzSide {
		s.rest2, s.op2, s.lit2, s.restricted2 = 2, uint8(slices.Index(fuzzOps, "=")), lit, true
		return s
	}
	addPair(f, restricted("<", "30"), titled(restricted("<", "20"), "data"))
	addPair(f, titled(restricted("<", "30"), "data"), restricted("<", "20"))
	// Joined sides: each value twice in a row (runs of equal
	// subtrees), the restrictions pushed into the join's left side.
	// Only sub's restrictions can cross the join into its chain: a
	// restriction both sides have pairs below the join, where the
	// group subtree alone cannot evaluate sub's stricter one.
	joined := func(s fuzzSide) fuzzSide { s.joined = true; return s }
	addPair(f, joined(fuzzSide{lit: "0"}), joined(restricted("<", "20")))
	addPair(f, joined(fuzzSide{lit: "0"}), joined(titled(restricted(">", "10"), "data")))
	addPair(f, joined(restricted("<", "30")), joined(and(">", "10", "<", "20")))   // not contained
	addPair(f, joined(fuzzSide{path: 1, lit: "0"}), joined(restricted("<", "30"))) // not contained
	addPair(f, fuzzSide{lit: "0"}, joined(restricted("<", "20")))                  // not contained
	f.Fuzz(func(t *testing.T,
		sp, sr, sop uint8, slit string, sHas, sNest bool, sr2, sop2 uint8, slit2 string, sHas2, sJoin bool,
		bp, br, bop uint8, blit string, bHas, bNest bool, br2, bop2 uint8, blit2 string, bHas2, bJoin bool) {
		superQ := fuzzSide{sp, sr, sop, slit, sHas, sNest, sr2, sop2, slit2, sHas2, sJoin}.text()
		subQ := fuzzSide{bp, br, bop, blit, bHas, bNest, br2, bop2, blit2, bHas2, bJoin}.text()
		srcs := map[string]*xmltree.Tree{"src": fuzzBib()}
		superPlan, subPlan := rewriteQ(t, superQ), rewriteQ(t, subQ)
		want := oracle(t, subPlan, srcs)
		got, _, _ := drainSemPair(t, superPlan, subPlan, srcs, true)
		if !xmltree.Equal(got, want) {
			t.Fatalf("unsound semantic answer\nsuper: %s\nsub:   %s\n got %s\nwant %s",
				superQ, subQ, xmltree.MarshalXML(got), xmltree.MarshalXML(want))
		}
	})
}
