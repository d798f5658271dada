package xmas

import (
	"reflect"
	"strings"
	"testing"
)

// TestLiteralsWhereTheySit: the parser reports every quoted and bare
// comparison operand and every template text item, in source order,
// each the bytes it spans; variable operands and comments are not
// literals.
func TestLiteralsWhereTheySit(t *testing.T) {
	const text = `CONSTRUCT <r> "head" <h> $H "" </h> {$H} </r> {} % "not a literal"
WHERE homesSrc homes.home $H AND $H zip._ $Z AND $Z > "9 1" AND $Z != bare"ly AND $Z = $H`
	q, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, l := range q.Literals {
		if text[l.Pos:l.End] != l.Value {
			t.Errorf("literal %q spans %q", l.Value, text[l.Pos:l.End])
		}
		got = append(got, l.Value)
	}
	if want := []string{"head", "", "9 1", `bare"ly`}; !reflect.DeepEqual(got, want) {
		t.Fatalf("literals %q, want %q", got, want)
	}
}

// TestShapeLiftsLiteralsOnly: texts that differ only in their literals
// share a shape; any other difference — a variable for a literal, a
// quoted literal for a bare one, an operator, a tag, a path — splits
// it.
func TestShapeLiftsLiteralsOnly(t *testing.T) {
	const base = `CONSTRUCT <r> "t" $H {$H} </r> {} WHERE homesSrc homes.home $H AND $H zip._ $Z AND $Z > "1" AND $Z != 2`
	shape := func(text string) string {
		t.Helper()
		q, err := Parse(text)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		return q.Shape()
	}
	same := []string{
		`CONSTRUCT <r> "" $H {$H} </r> {} WHERE homesSrc homes.home $H AND $H zip._ $Z AND $Z > "a\nb ]→" AND $Z != x]`,
		"CONSTRUCT <r> \"\x00\" $H {$H} </r> {} WHERE homesSrc homes.home $H AND $H zip._ $Z AND $Z > \"literal 0\" AND $Z != 2",
	}
	for _, text := range same {
		if shape(text) != shape(base) {
			t.Errorf("shape of %q differs from the base's", text)
		}
	}
	differ := []string{
		strings.Replace(base, `$Z > "1"`, `$Z > $H`, 1),
		strings.Replace(base, `$Z != 2`, `$Z != "2"`, 1),
		strings.Replace(base, `$Z > "1"`, `$Z >= "1"`, 1),
		strings.Replace(base, `"t" $H`, `$H`, 1),
		strings.Replace(base, `homes.home`, `homes.house`, 1),
	}
	for _, text := range differ {
		if shape(text) == shape(base) {
			t.Errorf("shape of %q equals the base's", text)
		}
	}
}

// TestTemplateSentinels: a template holds sentinel(i) where the query
// holds its i-th literal and is otherwise the query; the query is left
// as it was.
func TestTemplateSentinels(t *testing.T) {
	const text = `CONSTRUCT <r> "a" <h> $H "b" </h> {$H} </r> {} WHERE homesSrc homes.home $H AND $H zip._ $Z AND $Z > "c" AND $Z != $H AND $Z != d`
	q := MustParse(text)
	tmpl, sentinels := q.Template()
	if want := []string{sentinel(0), sentinel(1), sentinel(2), sentinel(3)}; !reflect.DeepEqual(sentinels, want) {
		t.Fatalf("sentinels %q, want %q", sentinels, want)
	}
	root := tmpl.Construct
	h := root.Items[1].(*Element)
	got := []string{
		root.Items[0].(*TextItem).Text,
		h.Items[1].(*TextItem).Text,
		tmpl.Where[2].(*CondAtom).Right,
		tmpl.Where[4].(*CondAtom).Right,
	}
	if !reflect.DeepEqual(got, sentinels) {
		t.Fatalf("template literals %q, want %q", got, sentinels)
	}
	if c := tmpl.Where[3].(*CondAtom); c.Right != "H" || !c.RightIsVar {
		t.Fatalf("variable operand templated: %+v", c)
	}
	if !reflect.DeepEqual(q, MustParse(text)) {
		t.Fatal("Template modified the query")
	}
	for _, s := range sentinels {
		if !strings.Contains(s, `"`) || !strings.Contains(s, " ") {
			t.Fatalf("sentinel %q could be a literal", s)
		}
	}
}
