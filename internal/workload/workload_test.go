package workload

import (
	"testing"

	"mix/internal/algebra"
	"mix/internal/xmltree"
)

func TestHomesSchoolsShape(t *testing.T) {
	homes, schools := HomesSchools(25, 13, 4, 1)
	if homes.Label != "homes" || len(homes.Children) != 25 {
		t.Fatalf("homes = %s/%d", homes.Label, len(homes.Children))
	}
	if schools.Label != "schools" || len(schools.Children) != 13 {
		t.Fatalf("schools = %s/%d", schools.Label, len(schools.Children))
	}
	for _, h := range homes.Children {
		if h.Label != "home" || h.Find("addr") == nil || h.Find("zip") == nil || h.Find("price") == nil {
			t.Fatalf("malformed home: %v", h)
		}
		if len(h.Find("zip").TextContent()) != 5 {
			t.Fatalf("zip format: %v", h.Find("zip"))
		}
	}
	for _, s := range schools.Children {
		if s.Label != "school" || s.Find("dir") == nil || s.Find("zip") == nil {
			t.Fatalf("malformed school: %v", s)
		}
	}
}

func TestHomesSchoolsDeterministic(t *testing.T) {
	h1, s1 := HomesSchools(10, 10, 3, 42)
	h2, s2 := HomesSchools(10, 10, 3, 42)
	if !xmltree.Equal(h1, h2) || !xmltree.Equal(s1, s2) {
		t.Fatal("same seed must reproduce the dataset")
	}
	h3, _ := HomesSchools(10, 10, 3, 43)
	if xmltree.Equal(h1, h3) {
		t.Fatal("different seeds should differ")
	}
}

func TestFlatList(t *testing.T) {
	l := FlatList(6, "a", "b")
	if len(l.Children) != 6 {
		t.Fatalf("len = %d", len(l.Children))
	}
	if l.Children[0].Label != "a" || l.Children[1].Label != "b" || l.Children[2].Label != "a" {
		t.Fatalf("label cycle wrong: %v", l)
	}
	if l.Children[3].TextContent() != "3" {
		t.Fatalf("index content wrong: %v", l.Children[3])
	}
	d := FlatList(2)
	if d.Children[0].Label != "item" {
		t.Fatalf("default label: %v", d)
	}
}

func TestBooks(t *testing.T) {
	b := Books("az", 12, 7)
	if b.Label != "catalog" || len(b.Children) != 12 {
		t.Fatalf("catalog shape: %s/%d", b.Label, len(b.Children))
	}
	subjects := map[string]int{}
	for _, bk := range b.Children {
		if bk.Find("title") == nil || bk.Find("price") == nil || bk.Find("subject") == nil {
			t.Fatalf("malformed book: %v", bk)
		}
		subjects[bk.Find("subject").TextContent()]++
	}
	// Subjects cycle: every subject appears at least twice in 12 books.
	if len(subjects) != 5 {
		t.Fatalf("subjects = %v", subjects)
	}
	if !xmltree.Equal(Books("az", 12, 7), b) {
		t.Fatal("not deterministic")
	}
}

func TestDemo(t *testing.T) {
	for kind, label := range map[string]string{"books": "catalog", "homes": "homes", "schools": "schools"} {
		d, err := Demo(kind, "store", 7)
		if err != nil || d.Label != label || len(d.Children) != 7 {
			t.Fatalf("demo %s: %v, %v", kind, d, err)
		}
	}
	if _, err := Demo("cars", "store", 7); err == nil {
		t.Fatal("unknown demo dataset accepted")
	}
}

func TestDeepTree(t *testing.T) {
	d := DeepTree(4, 2)
	if d.Label != "root" {
		t.Fatalf("root label %q", d.Label)
	}
	if got := d.CountLabel("a"); got != 4 {
		t.Fatalf("a count = %d, want depth levels", got)
	}
	if got := d.CountLabel("x"); got != 8 {
		t.Fatalf("x count = %d, want depth*fanout", got)
	}
	if d.Depth() != 4+3 { // root + chain of a's + x + leaf
		t.Fatalf("depth = %d", d.Depth())
	}
}

func TestCannedPlansValidate(t *testing.T) {
	plans := []algebra.Op{
		HomesSchoolsPlan(),
		ConcPlan("s1", "s2"),
		SelectionPlan("s", "a"),
		ReorderPlan("s", "age._"),
		AllBooksPlan("a", "b", "databases"),
		RecursivePlan("d"),
	}
	for i, p := range plans {
		if err := algebra.Validate(p); err != nil {
			t.Errorf("plan %d invalid: %v", i, err)
		}
	}
}

func TestCannedPlanClasses(t *testing.T) {
	if cls, _ := algebra.Classify(ConcPlan("a", "b"), false); cls != algebra.BoundedBrowsable {
		t.Errorf("ConcPlan = %v", cls)
	}
	if cls, _ := algebra.Classify(SelectionPlan("s", "a"), false); cls != algebra.Browsable {
		t.Errorf("SelectionPlan = %v", cls)
	}
	if cls, _ := algebra.Classify(SelectionPlan("s", "a"), true); cls != algebra.BoundedBrowsable {
		t.Errorf("SelectionPlan with select = %v", cls)
	}
	if cls, _ := algebra.Classify(ReorderPlan("s", "age._"), false); cls != algebra.Unbrowsable {
		t.Errorf("ReorderPlan = %v", cls)
	}
}
