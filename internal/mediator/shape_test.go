package mediator

// Equivalence of the shape memo with whole preprocessing: whatever
// texts a mediator has seen before, the view it prepares for a text —
// from the exact-text memo, preprocessed whole, or bound into its
// shape's template — equals the view a fresh preprocessing of the text
// yields, and an invalid text fails with the same error.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"math/rand"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"mix/internal/xmas"
)

// hostileTexts put literals where the repository's texts do not: text
// items of the CONSTRUCT clause, bare operands, NUL and sentinel-like
// bytes in literals and comments, equal literals, and views.
var hostileTexts = []string{
	`CONSTRUCT <r> "head" <h> $H "mid" </h> {$H} "tail" </r> {} WHERE homesSrc homes.home $H AND $H zip._ $Z AND $Z > "9" AND $Z != 91000`,
	`CONSTRUCT <r> <h> "" $H </h> {$H} </r> {} WHERE homesSrc homes.home $H AND $H zip._ $Z AND $Z != "" AND $Z != ""`,
	"CONSTRUCT <r> $H {$H} </r> {} WHERE homesSrc homes.home $H AND $H zip._ $Z AND $Z != \"a\x00b\" AND $Z != \"literal 0\"",
	"CONSTRUCT <r> \"x\x00\" $H {$H} </r> {} % \"literal 1\" and \x00 in a comment\nWHERE homesSrc homes.home $H AND $H zip._ $Z AND $Z != lit\"eral",
	`CONSTRUCT <r> $X {$X} </r> {} WHERE v vs._ $X AND $X != "q"`,
	`CONSTRUCT <r> $X {$X} </r> {} WHERE nested n._ $X AND $X != "literal 0" AND $X != 5`,
	`CONSTRUCT <r> <p> $H $S {$S} </p> {$H} </r> {} WHERE homeview homes.home $H AND $H zip._ $V1 AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2 AND $V1 >= "9"`,
	`CONSTRUCT <r> $H {$H} </r> {} WHERE homesSrc homes.home $H AND $H zip._ $Z AND $Z > "1" ORDERBY $Z`,
	`CONSTRUCT <r> $H {$H} </r> {} WHERE homesSrc homes.home $H AND $Q > "1"`,
	`CONSTRUCT <r> $H {$H} </r> {$H} WHERE homesSrc homes.home $H AND $H zip._ $Z AND $Z > "1"`,
	`CONSTRUCT <r> $H {$H} </r> {} WHERE homesSrc homes.home $H AND $H zip._ $Z AND $Z > "1`,
}

// catalogue is the views the equivalence checks compose with: bodies
// with literals of their own, NUL and sentinel-like bytes among them,
// and one view over another.
var catalogue = map[string]string{
	"v":         `CONSTRUCT <vs> $H {$H} </vs> {} WHERE homesSrc homes.home $H AND $H zip._ $Z AND $Z != "literal 0"`,
	"homeview":  "CONSTRUCT <homes> $H {$H} </homes> {} WHERE homesSrc homes.home $H AND $H zip._ $Z AND $Z != \"\x00\" AND $Z > 9",
	"homesView": homesSchoolsView,
	"nested":    `CONSTRUCT <n> "from v" $X {$X} </n> {} WHERE v vs._ $X AND $X != "q"`,
	"allbooks":  `CONSTRUCT <books> $B {$B} </books> {} WHERE booksSrc books.book $B AND $B price._ $P AND $P < "50"`,
}

// corpus returns every XMAS text in the repository's Go files — tests,
// examples, experiments, commands and the benchmark's templates, a
// format verb filled in — and hostileTexts.
func corpus(tb testing.TB) []string {
	tb.Helper()
	seen := map[string]bool{}
	for _, s := range hostileTexts {
		seen[s] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "../.." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			s, err := strconv.Unquote(lit.Value)
			if err == nil && strings.Contains(s, "CONSTRUCT") {
				s = strings.NewReplacer("%d", "7", "%s", "x").Replace(s)
				seen[s] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return slices.Sorted(maps.Keys(seen))
}

// catalogued returns a mediator with opts whose views are cat's.
func catalogued(tb testing.TB, opts Options, cat map[string]string) *Mediator {
	tb.Helper()
	m := New(opts)
	for _, name := range slices.Sorted(maps.Keys(cat)) {
		if err := m.DefineView(name, cat[name]); err != nil {
			tb.Fatal(err)
		}
	}
	return m
}

// whole preprocesses text afresh, on ref, bypassing both memos.
func whole(ref *Mediator, text string) (memoEntry, error) {
	q, err := xmas.Parse(text)
	if err != nil {
		return memoEntry{}, err
	}
	return ref.preprocess(q)
}

// sameView reports how got differs from want: canonical fingerprint,
// sources, top variables, cache name, browsability, or error.
func sameView(got memoEntry, gotErr error, want memoEntry, wantErr error) error {
	if gotErr != nil || wantErr != nil {
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			return fmt.Errorf("error %v, want %v", gotErr, wantErr)
		}
		return nil
	}
	g, w := got.view, want.view
	switch {
	case g.Fingerprint() != w.Fingerprint():
		return fmt.Errorf("fingerprint\n%s\nwant\n%s", g.Fingerprint(), w.Fingerprint())
	case g.Fingerprint() == "":
		return fmt.Errorf("no canonical form")
	case !slices.Equal(g.Sources(), w.Sources()):
		return fmt.Errorf("sources %q, want %q", g.Sources(), w.Sources())
	case !slices.Equal(g.TopVars(), w.TopVars()):
		return fmt.Errorf("top variables %q, want %q", g.TopVars(), w.TopVars())
	case g.Name() != w.Name():
		return fmt.Errorf("cache name %q, want %q", g.Name(), w.Name())
	case got.cls != want.cls:
		return fmt.Errorf("browsability %v, want %v", got.cls, want.cls)
	}
	return nil
}

// substitute returns text with the literals q lifted from it replaced
// by vals, in order.
func substitute(text string, q *xmas.Query, vals []string) string {
	var b strings.Builder
	at := 0
	for i, l := range q.Literals {
		b.WriteString(text[at:l.Pos])
		b.WriteString(vals[i])
		at = l.End
	}
	b.WriteString(text[at:])
	return b.String()
}

// quotedVals and bareVals are substitutions that keep a text's shape:
// no '"' (which ends a quoted literal), no whitespace or NUL (which end
// a bare one), no '"' or '$' first in a bare one, and no '%' (which
// starts a comment). They include the empty literal, literals equal to
// the texts', NUL, plan and tree notation, the renderer's arrow,
// non-ASCII and sentinel-like text.
var (
	quotedVals = []string{"", "7", "91000", "x", "a\nb", "]", "[", "→", "ü", "\x00", "literal 0", "literal", "q", " ", "$H", "a,b]"}
	bareVals   = []string{"7", "-3", "91000", "x]", "→", "ü", `a"b`, "literal", "q"}
)

// randomVals draws one substitution per literal of q in text; one in
// four repeats an earlier literal's when that keeps the shape.
func randomVals(r *rand.Rand, text string, q *xmas.Query) []string {
	vals := make([]string, len(q.Literals))
	for i, l := range q.Literals {
		quoted := l.Pos > 0 && text[l.Pos-1] == '"'
		pool := bareVals
		if quoted {
			pool = quotedVals
		}
		vals[i] = pool[r.Intn(len(pool))]
		if i > 0 && r.Intn(4) == 0 {
			if prev := vals[r.Intn(i)]; quoted || slices.Contains(bareVals, prev) {
				vals[i] = prev
			}
		}
	}
	return vals
}

// TestShapeBindMatchesPreprocessing: for every XMAS text in the
// repository and the hostile ones, under random literal substitutions
// and two option sets, each of a text and two substitutions of it —
// the shape's first sighting, its template, a bound view — prepares to
// the view whole preprocessing gives it, and the bound path is taken.
func TestShapeBindMatchesPreprocessing(t *testing.T) {
	texts := corpus(t)
	if len(texts) < 60 {
		t.Fatalf("corpus holds %d texts; the repository's were not found", len(texts))
	}
	r := rand.New(rand.NewSource(52))
	bound := 0
	for _, opts := range []Options{DefaultOptions(), {}} {
		for _, cat := range []map[string]string{nil, catalogue} {
			ref := catalogued(t, opts, cat)
			for _, text := range texts {
				q, err := xmas.Parse(text)
				for trial := range 4 {
					m := New(opts)
					m.views = maps.Clone(ref.views)
					seq := []string{text}
					if err == nil {
						seq = append(seq, substitute(text, q, randomVals(r, text, q)),
							substitute(text, q, randomVals(r, text, q)))
					}
					for i, s := range seq {
						got, gotErr := m.prepare(s)
						want, wantErr := whole(ref, s)
						if d := sameView(got, gotErr, want, wantErr); d != nil {
							t.Fatalf("options %+v, catalogue %v, trial %d, open %d of\n%q\nsubstituted as\n%q\n%v",
								opts, cat != nil, trial, i+1, text, s, d)
						}
					}
					if err == nil && len(q.Literals) > 0 {
						memos := m.Memos()
						memos.mu.Lock()
						if memos.shapes[q.Shape()] != nil {
							bound++
						}
						memos.mu.Unlock()
					}
				}
			}
		}
	}
	if bound < 100 {
		t.Fatalf("only %d trials bound a template", bound)
	}
}

// TestTemplateErrorsFallBack: a shape whose template fails to
// preprocess keeps no template, and each text of it fails with its own
// error, the one whole preprocessing gives.
func TestTemplateErrorsFallBack(t *testing.T) {
	m := New(DefaultOptions())
	ref := New(DefaultOptions())
	const bad = `CONSTRUCT <r> $H {$H} </r> {} WHERE homesSrc homes.home $H AND $Q > "`
	for k := range 3 {
		text := bad + strconv.Itoa(k) + `"`
		_, err := m.prepare(text)
		_, want := whole(ref, text)
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("open %d: error %v, want %v", k, err, want)
		}
	}
	memos := m.Memos()
	memos.mu.Lock()
	defer memos.mu.Unlock()
	for shape, s := range memos.shapes {
		if s != nil {
			t.Fatalf("shape %q kept a template that does not preprocess", shape)
		}
	}
}

// FuzzShapeBind: a text and two substitutions of its literals, opened
// in turn on one mediator, each prepare to the view whole preprocessing
// gives them, or fail with its error. The substitutions are free: one
// that changes the text's shape checks the first sighting instead.
func FuzzShapeBind(f *testing.F) {
	for i, text := range corpus(f) {
		f.Add(text, quotedVals[i%len(quotedVals)], bareVals[i%len(bareVals)])
	}
	ref := catalogued(f, DefaultOptions(), catalogue)
	f.Fuzz(func(t *testing.T, text, a, b string) {
		m := New(DefaultOptions())
		m.views = maps.Clone(ref.views)
		seq := []string{text}
		if q, err := xmas.Parse(text); err == nil {
			va, vb := make([]string, len(q.Literals)), make([]string, len(q.Literals))
			for i := range va {
				va[i] = a
				vb[i] = []string{b, a, ""}[i%3]
			}
			seq = append(seq, substitute(text, q, va), substitute(text, q, vb))
		}
		for i, s := range seq {
			got, gotErr := m.prepare(s)
			want, wantErr := whole(ref, s)
			if d := sameView(got, gotErr, want, wantErr); d != nil {
				t.Fatalf("open %d of %q: %v", i+1, s, d)
			}
		}
	})
}
