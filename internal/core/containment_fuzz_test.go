package core

import (
	"slices"
	"strings"
	"testing"

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

func fuzzQuery(path, rest, op, lit string, restricted, nested bool) string {
	var b strings.Builder
	if nested {
		b.WriteString(`CONSTRUCT <answer> <r> $B {$B} </r> </answer> {} WHERE src `)
	} else {
		b.WriteString(`CONSTRUCT <r> $B {$B} </r> {} WHERE src `)
	}
	b.WriteString(path)
	b.WriteString(` $B`)
	if restricted {
		b.WriteString(` AND $B ` + rest + ` $P AND $P ` + op + ` "` + lit + `"`)
	}
	return b.String()
}

func FuzzContainmentSound(f *testing.F) {
	// The E18 pair: unrestricted superset, σ-restricted sub.
	f.Add(uint8(0), uint8(0), uint8(0), "20", false, false, uint8(0), uint8(0), uint8(0), "20", true, false)
	// Path weakening: bib._ superset, bib.book sub, no conditions.
	f.Add(uint8(1), uint8(0), uint8(0), "0", false, false, uint8(0), uint8(0), uint8(0), "0", false, false)
	// Alternation superset, label sub, nested construct on both sides.
	f.Add(uint8(2), uint8(0), uint8(0), "0", false, true, uint8(3), uint8(0), uint8(0), "0", false, true)
	// Implication between conditions: < "30" cached, < "20" asked.
	f.Add(uint8(0), uint8(0), uint8(0), "30", true, false, uint8(0), uint8(0), uint8(0), "20", true, false)
	// Mixed-kind literals: numeric cached bound, non-numeric sub bound.
	f.Add(uint8(0), uint8(0), uint8(0), "30", true, false, uint8(0), uint8(0), uint8(1), "1x", true, false)
	// NOT contained: restricted superset, unrestricted sub.
	f.Add(uint8(0), uint8(0), uint8(0), "20", true, false, uint8(0), uint8(0), uint8(0), "20", false, false)
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
		so, bo := slices.Index(fuzzOps, c.super), slices.Index(fuzzOps, c.sub)
		f.Add(uint8(0), uint8(0), uint8(so), c.superLit, true, false, uint8(0), uint8(0), uint8(bo), c.subLit, true, false)
	}
	f.Fuzz(func(t *testing.T,
		sp, sr, sop uint8, slit string, sHas, sNest bool,
		bp, br, bop uint8, blit string, bHas, bNest bool) {
		superQ := fuzzQuery(
			fuzzPaths[int(sp)%len(fuzzPaths)],
			fuzzRestPaths[int(sr)%len(fuzzRestPaths)],
			fuzzOps[int(sop)%len(fuzzOps)], fuzzLit(slit), sHas, sNest)
		subQ := fuzzQuery(
			fuzzPaths[int(bp)%len(fuzzPaths)],
			fuzzRestPaths[int(br)%len(fuzzRestPaths)],
			fuzzOps[int(bop)%len(fuzzOps)], fuzzLit(blit), bHas, bNest)
		srcs := map[string]*xmltree.Tree{"src": fuzzBib()}
		superPlan, subPlan := translateQ(t, superQ), translateQ(t, subQ)
		want := oracle(t, subPlan, srcs)
		got, _, _ := drainSemPair(t, superPlan, subPlan, srcs, true)
		if !xmltree.Equal(got, want) {
			t.Fatalf("unsound semantic answer\nsuper: %s\nsub:   %s\n got %s\nwant %s",
				superQ, subQ, xmltree.MarshalXML(got), xmltree.MarshalXML(want))
		}
	})
}
