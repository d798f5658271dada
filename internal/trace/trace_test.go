package trace_test

import (
	"strings"
	"testing"
	"time"

	"mix/internal/nav"
	"mix/internal/trace"
	"mix/internal/xmltree"
)

func TestRecorderNesting(t *testing.T) {
	r := trace.New()
	a := r.Begin("client", "d")
	b := r.Begin("join", "next")
	c := r.Begin(trace.SourcePrefix+"s", "d")
	r.End(c)
	r.End(b)
	r.End(a)
	roots := r.Take()
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(roots))
	}
	if len(roots[0].Children) != 1 || len(roots[0].Children[0].Children) != 1 {
		t.Fatalf("nesting wrong: %s", trace.Format(roots))
	}
	if roots[0].Children[0].Children[0].Label != trace.SourcePrefix+"s" {
		t.Fatalf("leaf label = %q", roots[0].Children[0].Children[0].Label)
	}
	// Take resets: the next Begin starts a fresh forest.
	if again := r.Take(); len(again) != 0 {
		t.Fatalf("second Take returned %d roots", len(again))
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *trace.Recorder
	sp := r.Begin("x", "d")
	if sp != nil {
		t.Fatalf("nil recorder Begin returned a span")
	}
	r.End(sp)
	if roots := r.Take(); roots != nil {
		t.Fatalf("nil recorder Take returned %v", roots)
	}
}

func TestRecorderLimit(t *testing.T) {
	r := trace.New()
	r.Limit = 3
	for i := 0; i < 10; i++ {
		r.End(r.Begin("client", "d"))
	}
	if roots := r.Take(); len(roots) != 3 {
		t.Fatalf("retained %d roots, want 3", len(roots))
	}
}

func TestRecorderSink(t *testing.T) {
	r := trace.New()
	var got []string
	r.Sink = func(label, op string, d time.Duration) {
		if d < 0 {
			t.Errorf("negative duration for %s %s", label, op)
		}
		got = append(got, label+"/"+op)
	}
	inner := r.Begin("join", "next")
	r.End(inner)
	r.End(r.Begin("client", "d"))
	if len(got) != 2 || got[0] != "join/next" || got[1] != "client/d" {
		t.Fatalf("sink saw %v", got)
	}
}

func TestSourceTotalsAndSummary(t *testing.T) {
	r := trace.New()
	root := r.Begin(trace.ClientLabel, "d")
	for i := 0; i < 3; i++ {
		r.End(r.Begin(trace.SourcePrefix+"homes", "d"))
	}
	r.End(r.Begin(trace.SourcePrefix+"homes", "f"))
	r.End(r.Begin("join", "next"))
	r.End(root)
	roots := r.Take()
	totals := trace.SourceTotals(roots)
	if totals["d"] != 3 || totals["f"] != 1 {
		t.Fatalf("totals = %v", totals)
	}
	if n := trace.SourceNavigations(roots); n != 4 {
		t.Fatalf("SourceNavigations = %d, want 4", n)
	}
	sum := trace.Summarize(roots)
	var sawJoin bool
	for _, s := range sum {
		if s.Label == "join" && s.Op == "next" && s.Count == 1 {
			sawJoin = true
		}
	}
	if !sawJoin {
		t.Fatalf("summary missing join/next: %v", sum)
	}
	text := trace.Format(roots)
	if !strings.Contains(text, trace.ClientLabel+" d") || !strings.Contains(text, "  "+trace.SourcePrefix+"homes d") {
		t.Fatalf("format:\n%s", text)
	}
}

// plainDoc hides TreeDoc's native Selector.
type plainDoc struct{ d nav.Document }

func (p plainDoc) Root() (nav.ID, error)          { return p.d.Root() }
func (p plainDoc) Down(q nav.ID) (nav.ID, error)  { return p.d.Down(q) }
func (p plainDoc) Right(q nav.ID) (nav.ID, error) { return p.d.Right(q) }
func (p plainDoc) Fetch(q nav.ID) (string, error) { return p.d.Fetch(q) }

func sibTree() *xmltree.Tree {
	return xmltree.Elem("root", xmltree.Leaf("a"), xmltree.Leaf("b"), xmltree.Leaf("target"))
}

// TestDocSelectBilling checks that a traced select over a native
// document is one span, while over a non-native document the fallback
// bills each r/f hop — matching CountingDoc at the same boundary.
func TestDocSelectBilling(t *testing.T) {
	// Native: TreeDoc implements Selector.
	r := trace.New()
	doc := trace.NewDoc(nav.NewTreeDoc(sibTree()), trace.SourcePrefix+"s", r)
	root, _ := doc.Root()
	first, _ := doc.Down(root)
	got, err := nav.Select(doc, first, nav.LabelIs("target"), false)
	if err != nil || got == nil {
		t.Fatalf("native select: %v %v", got, err)
	}
	totals := trace.SourceTotals(r.Take())
	if totals["select"] != 1 || totals["r"] != 0 || totals["f"] != 0 {
		t.Fatalf("native totals = %v", totals)
	}

	// Non-native: the scan is billed hop by hop.
	r2 := trace.New()
	doc2 := trace.NewDoc(plainDoc{d: nav.NewTreeDoc(sibTree())}, trace.SourcePrefix+"s", r2)
	if _, ok := nav.SelectorOf(doc2); ok {
		t.Fatal("plainDoc reported native select")
	}
	root2, _ := doc2.Root()
	first2, _ := doc2.Down(root2)
	got2, err := nav.Select(doc2, first2, nav.LabelIs("target"), false)
	if err != nil || got2 == nil {
		t.Fatalf("fallback select: %v %v", got2, err)
	}
	totals2 := trace.SourceTotals(r2.Take())
	if totals2["select"] != 0 || totals2["r"] != 2 || totals2["f"] != 2 {
		t.Fatalf("fallback totals = %v", totals2)
	}
}

// TestDocSelectRightScans: a direct SelectRight on a traced document
// without native select traces each r and f hop of the scan, no select,
// and returns what nav.Select on the bare document does.
func TestDocSelectRightScans(t *testing.T) {
	bare := plainDoc{d: nav.NewTreeDoc(xmltree.Elem("root",
		xmltree.Leaf("x"), xmltree.Leaf("x"), xmltree.Leaf("a"), xmltree.Leaf("x")))}
	root, _ := bare.Root()
	kids := []nav.ID{}
	for k, _ := bare.Down(root); k != nil; k, _ = bare.Right(k) {
		kids = append(kids, k)
	}
	for _, c := range []struct {
		name     string
		from     int
		label    string
		fromSelf bool
		r, f     int64
	}{
		{"found, from self", 0, "a", true, 2, 3},
		{"found, after self", 0, "a", false, 2, 2},
		{"not found", 0, "zzz", true, 4, 4},
		{"after the last", 3, "x", false, 1, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			want, err := nav.Select(bare, kids[c.from], nav.LabelIs(c.label), c.fromSelf)
			if err != nil {
				t.Fatal(err)
			}
			rec := trace.New()
			doc := trace.NewDoc(bare, trace.SourcePrefix+"s", rec)
			got, err := doc.SelectRight(kids[c.from], nav.LabelIs(c.label), c.fromSelf)
			if err != nil || got != want {
				t.Fatalf("SelectRight = %v, %v; nav.Select on the bare document = %v", got, err, want)
			}
			totals := trace.SourceTotals(rec.Take())
			if totals["select"] != 0 || totals["r"] != c.r || totals["f"] != c.f {
				t.Fatalf("traced %v, want r=%d f=%d and no select", totals, c.r, c.f)
			}
		})
	}
}
