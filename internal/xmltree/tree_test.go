package xmltree

import (
	"math/rand"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"
	"testing/quick"
)

func sample() *Tree {
	return Elem("homes",
		Elem("home", Text("addr", "La Jolla"), Text("zip", "91220")),
		Elem("home", Text("addr", "El Cajon"), Text("zip", "91223")),
	)
}

func TestConstructors(t *testing.T) {
	l := Leaf("91220")
	if !l.IsLeaf() || l.Label != "91220" {
		t.Fatalf("Leaf: got %v", l)
	}
	e := Elem("zip", l)
	if e.IsLeaf() || len(e.Children) != 1 || e.Children[0] != l {
		t.Fatalf("Elem: got %v", e)
	}
	x := Text("zip", "91220")
	if !Equal(e, x) {
		t.Fatalf("Text != Elem+Leaf: %v vs %v", e, x)
	}
}

func TestHole(t *testing.T) {
	h := Hole("db.homes.5")
	if !h.IsHole() {
		t.Fatal("Hole not recognized")
	}
	if got := h.HoleID(); got != "db.homes.5" {
		t.Fatalf("HoleID = %q", got)
	}
	if Leaf("hole").IsHole() {
		t.Fatal("leaf labeled hole must not be a hole element")
	}
	if Elem("hole", Leaf("a"), Leaf("b")).IsHole() {
		t.Fatal("hole with two children must not be a hole element")
	}
	if !Elem("r", Leaf("a"), h).IsOpen() {
		t.Fatal("tree containing hole should be open")
	}
	if sample().IsOpen() {
		t.Fatal("closed tree reported open")
	}
	if sample().HoleID() != "" {
		t.Fatal("HoleID of non-hole should be empty")
	}
}

func TestHoles(t *testing.T) {
	tr := Elem("r", Hole("h1"), Elem("a", Hole("h2")), Leaf("x"), Hole("h3"))
	if got := tr.Holes(); !reflect.DeepEqual(got, []string{"h1", "h2", "h3"}) {
		t.Fatalf("Holes = %v", got)
	}
	if got := sample().Holes(); got != nil {
		t.Fatalf("Holes of closed tree = %v", got)
	}
}

func TestCloneAndEqual(t *testing.T) {
	a := sample()
	b := a.Clone()
	if !Equal(a, b) {
		t.Fatal("clone not equal")
	}
	if a == b || a.Children[0] == b.Children[0] {
		t.Fatal("clone shares nodes")
	}
	b.Children[0].Children[0].Children[0].Label = "Del Mar"
	if Equal(a, b) {
		t.Fatal("mutation of clone affected original equality")
	}
	if Equal(a, nil) || !Equal(nil, nil) {
		t.Fatal("nil equality rules")
	}
	if Equal(Elem("a", Leaf("x")), Elem("a")) {
		t.Fatal("different child counts equal")
	}
}

// TestEqualSamePointer: a tree is equal to itself without a walk, at
// the top and at every child. A cyclic tree shows it, since a walk over
// it never ends; the stack cap makes a missing shortcut fail at once
// instead of growing a 1 GB stack.
func TestEqualSamePointer(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(1 << 20))
	cyc := Elem("a")
	cyc.Children = []*Tree{cyc}
	if !Equal(cyc, cyc) {
		t.Error("a tree is not equal to itself")
	}
	if !Equal(Elem("r", cyc), Elem("r", cyc)) {
		t.Error("two trees sharing a child are not equal")
	}
}

func TestSizeDepth(t *testing.T) {
	s := sample()
	if s.Size() != 11 {
		t.Fatalf("Size = %d, want 11", s.Size())
	}
	if s.Depth() != 4 {
		t.Fatalf("Depth = %d, want 4", s.Depth())
	}
	if Leaf("x").Size() != 1 || Leaf("x").Depth() != 1 {
		t.Fatal("leaf size/depth")
	}
	var nilT *Tree
	if nilT.Size() != 0 || nilT.Depth() != 0 {
		t.Fatal("nil size/depth")
	}
}

func TestAccessors(t *testing.T) {
	s := sample()
	if s.FirstChild().Label != "home" {
		t.Fatal("FirstChild")
	}
	if s.Child(1).Label != "home" || s.Child(2) != nil || s.Child(-1) != nil {
		t.Fatal("Child bounds")
	}
	h := s.FirstChild()
	if h.Find("zip").TextContent() != "91220" {
		t.Fatal("Find zip")
	}
	if h.Find("nope") != nil {
		t.Fatal("Find miss should be nil")
	}
	if n := len(s.FindAll("home")); n != 2 {
		t.Fatalf("FindAll = %d", n)
	}
	if s.CountLabel("zip") != 2 || s.CountLabel("homes") != 1 {
		t.Fatal("CountLabel")
	}
}

func TestTextContent(t *testing.T) {
	if got := sample().TextContent(); got != "La Jolla91220El Cajon91223" {
		t.Fatalf("TextContent = %q", got)
	}
	if Leaf("x").TextContent() != "x" {
		t.Fatal("leaf TextContent")
	}
}

func TestWalkOrderAndPrune(t *testing.T) {
	var labels []string
	sample().Walk(func(n *Tree, depth int) bool {
		labels = append(labels, n.Label)
		return n.Label != "home" // prune below home
	})
	want := []string{"homes", "home", "home"}
	if !reflect.DeepEqual(labels, want) {
		t.Fatalf("Walk with prune = %v", labels)
	}
	var depths []int
	Text("zip", "91220").Walk(func(n *Tree, d int) bool { depths = append(depths, d); return true })
	if !reflect.DeepEqual(depths, []int{0, 1}) {
		t.Fatalf("depths = %v", depths)
	}
}

func TestString(t *testing.T) {
	tr := Elem("home", Text("addr", "La Jolla"), Text("zip", "91220"))
	want := "home[addr[La Jolla],zip[91220]]"
	if got := tr.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	var nilT *Tree
	if nilT.String() != "⊥" {
		t.Fatal("nil String")
	}
}

func TestCanonicalDistinguishes(t *testing.T) {
	// Labels containing bracket characters must not collide structurally.
	a := Elem("a[b", Leaf("c"))
	b := Elem("a", Elem("b", Leaf("c")))
	if a.Canonical() == b.Canonical() {
		t.Fatal("Canonical collision")
	}
	if a.Canonical() != a.Clone().Canonical() {
		t.Fatal("Canonical not stable under clone")
	}
}

func TestSortChildrenBy(t *testing.T) {
	tr := Elem("r", Text("p", "3"), Text("p", "1"), Text("p", "2"))
	sorted := tr.SortChildrenBy(func(c *Tree) string { return c.TextContent() })
	got := []string{}
	for _, c := range sorted.Children {
		got = append(got, c.TextContent())
	}
	if !reflect.DeepEqual(got, []string{"1", "2", "3"}) {
		t.Fatalf("sorted = %v", got)
	}
	// original untouched
	if tr.Children[0].TextContent() != "3" {
		t.Fatal("SortChildrenBy mutated original")
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	s := sample()
	xml := MarshalXML(s)
	back, err := UnmarshalXML(xml)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !Equal(s, back) {
		t.Fatalf("round trip mismatch:\n in: %v\nout: %v", s, back)
	}
}

func TestMarshalIndentParses(t *testing.T) {
	s := sample()
	xml := MarshalIndent(s)
	if !strings.Contains(xml, "\n") {
		t.Fatal("MarshalIndent should be multi-line")
	}
	back, err := UnmarshalXML(xml)
	if err != nil {
		t.Fatalf("Unmarshal indented: %v", err)
	}
	if !Equal(s, back) {
		t.Fatalf("indent round trip mismatch: %v vs %v", s, back)
	}
}

func TestUnmarshalEscapes(t *testing.T) {
	tr := Text("note", "a<b & c>d")
	back, err := UnmarshalXML(MarshalXML(tr))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(tr, back) {
		t.Fatalf("escape round trip: %v vs %v", tr, back)
	}
	got, err := UnmarshalXML("<x>&quot;hi&apos;</x>")
	if err != nil {
		t.Fatal(err)
	}
	if got.TextContent() != "\"hi'" {
		t.Fatalf("entities: %q", got.TextContent())
	}
}

func TestUnmarshalMixedAndComments(t *testing.T) {
	got, err := UnmarshalXML("<?xml version=\"1.0\"?><!-- c --><r> <a/> text <!-- inner --> <b>x</b></r>")
	if err != nil {
		t.Fatal(err)
	}
	want := Elem("r", Elem("a"), Leaf("text"), Text("b", "x"))
	if !Equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := []string{
		"",
		"<a>",
		"<a></b>",
		"<a x=\"1\">y</a>", // attributes rejected
		"<a>&bogus;</a>",
		"<a/><b/>",
		"junk",
		"<a></a>trailing",
		"<1bad/>",
	}
	for _, c := range cases {
		if _, err := UnmarshalXML(c); err == nil {
			t.Errorf("UnmarshalXML(%q): expected error", c)
		}
	}
}

func TestParseBracket(t *testing.T) {
	in := "bs[b[H[home[addr[La Jolla],zip[91220]]],V1[91220]]]"
	tr, err := ParseBracket(in)
	if err != nil {
		t.Fatal(err)
	}
	if tr.String() != in {
		t.Fatalf("bracket round trip: %q", tr.String())
	}
	if _, err := ParseBracket("a[b"); err == nil {
		t.Fatal("unterminated bracket accepted")
	}
	if _, err := ParseBracket("a[]x"); err == nil {
		t.Fatal("trailing accepted")
	}
	if _, err := ParseBracket(""); err == nil {
		t.Fatal("empty accepted")
	}
	empty, err := ParseBracket("a[]")
	if err != nil || !empty.IsLeaf() {
		t.Fatalf("a[] should parse to childless a: %v %v", empty, err)
	}
}

// randomTree generates a random tree with XML-safe labels for
// round-trip properties.
func randomTree(r *rand.Rand, depth int) *Tree {
	labels := []string{"a", "b", "c", "home", "zip", "school", "x1"}
	t := &Tree{Label: labels[r.Intn(len(labels))]}
	if depth <= 0 || r.Intn(3) == 0 {
		if r.Intn(2) == 0 {
			return Leaf("v" + labels[r.Intn(len(labels))])
		}
		return t
	}
	n := r.Intn(4)
	for i := 0; i < n; i++ {
		c := randomTree(r, depth-1)
		// XML normal form: adjacent text nodes are indistinguishable
		// after serialization, so never emit two leaf siblings in a row.
		if len(t.Children) > 0 && t.Children[len(t.Children)-1].IsLeaf() && c.IsLeaf() {
			c = Elem("w", c)
		}
		t.Children = append(t.Children, c)
	}
	return t
}

func TestQuickXMLRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTree(r, 4)
		if tr.IsLeaf() {
			tr = Elem("root", tr)
		}
		back, err := UnmarshalXML(MarshalXML(tr))
		return err == nil && Equal(tr, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBracketRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTree(r, 4)
		back, err := ParseBracket(tr.String())
		return err == nil && Equal(tr, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCloneEqualSize(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTree(r, 5)
		c := tr.Clone()
		return Equal(tr, c) && tr.Size() == c.Size() && tr.Canonical() == c.Canonical()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickParserNeverPanics(t *testing.T) {
	// The XML and bracket parsers must reject garbage gracefully.
	f := func(s string) bool {
		_, _ = UnmarshalXML(s)
		_, _ = ParseBracket(s)
		return true // reaching here means no panic
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// A few adversarial fixed inputs.
	for _, s := range []string{
		"<", "</", "<a", "<a>", "</a>", "<a></", "<a><b></a></b>",
		"<a>&", "<a>&amp", strings.Repeat("<a>", 10000),
		"<!---->", "<?", "<a/><a/>", "\x00\x01", "a[b[c[",
	} {
		_, _ = UnmarshalXML(s)
		_, _ = ParseBracket(s)
	}
}

// TestQuickXMLSize: XMLSize is MarshalXML's length without the string,
// on generated trees salted with text that needs escaping and holes.
func TestQuickXMLSize(t *testing.T) {
	nasty := []string{"a&b", "<<", "x>y", "&amp;", "héllo ☃", ""}
	var salt func(r *rand.Rand, tr *Tree)
	salt = func(r *rand.Rand, tr *Tree) {
		for i, c := range tr.Children {
			switch r.Intn(6) {
			case 0:
				tr.Children[i] = Leaf(nasty[r.Intn(len(nasty))])
			case 1:
				tr.Children[i] = Hole("0/" + nasty[r.Intn(len(nasty))] + ":3")
			default:
				salt(r, c)
			}
		}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTree(r, 5)
		salt(r, tr)
		return XMLSize(tr) == len(MarshalXML(tr))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if XMLSize(nil) != len(MarshalXML(nil)) {
		t.Fatal("XMLSize(nil) != len(MarshalXML(nil))")
	}
}
