package xmltree

import (
	"fmt"
	"sync"
	"testing"
)

func TestFingerprintEqualTreesAgree(t *testing.T) {
	cases := []*Tree{
		Leaf("a"),
		Leaf(""),
		Elem("a"),
		Elem("home", Text("addr", "La Jolla"), Text("zip", "92093")),
		Elem("r", Elem("a", Leaf("b")), Leaf("ab")),
		Hole("0/2:5"),
	}
	for _, c := range cases {
		clone := c.Clone()
		if !Equal(c, clone) {
			t.Fatalf("clone not Equal for %v", c)
		}
		if c.Fingerprint() != clone.Fingerprint() {
			t.Errorf("Equal trees with different fingerprints: %v", c)
		}
	}
}

func TestFingerprintDistinguishesStructure(t *testing.T) {
	// Pairwise-distinct small trees, including shapes crafted to collide
	// under naive (non-prefix-free) encodings.
	cases := []*Tree{
		Leaf("a"),
		Leaf("b"),
		Leaf("ab"),
		Elem("a"),                       // leaf "a" vs element a[] — same here (no leaf/element distinction)...
		Elem("a", Leaf("b")),            // a[b]
		Elem("ab", Leaf("")),            // ab[""]
		Elem("a", Leaf("b"), Leaf("c")), // a[b,c]
		Elem("a", Elem("b", Leaf("c"))), // a[b[c]]
		Elem("a", Leaf("bc")),           // a[bc]
		Elem("", Leaf("a")),
	}
	seen := map[Fingerprint]*Tree{}
	for _, c := range cases {
		fp := c.Fingerprint()
		if prev, ok := seen[fp]; ok && !Equal(prev, c) {
			t.Errorf("collision between %v and %v", prev, c)
		}
		seen[fp] = c
	}
	// Leaf "a" and Elem("a") are the same tree in this abstraction and
	// must agree.
	if Leaf("x").Fingerprint() != Elem("x").Fingerprint() {
		t.Errorf("leaf and empty element with same label must share a fingerprint")
	}
}

func TestFingerprintNilAndZero(t *testing.T) {
	var nilT *Tree
	if fp := nilT.Fingerprint(); !fp.IsZero() {
		t.Errorf("nil tree fingerprint = %v, want zero", fp)
	}
	if fp := Leaf("a").Fingerprint(); fp.IsZero() {
		t.Errorf("non-nil tree got zero fingerprint")
	}
}

func TestFingerprintMemoized(t *testing.T) {
	tree := Elem("r", Text("a", "1"), Text("b", "2"))
	_, hits0 := FingerprintStats()
	fp1 := tree.Fingerprint()
	fp2 := tree.Fingerprint()
	if fp1 != fp2 {
		t.Fatalf("fingerprint not stable: %v vs %v", fp1, fp2)
	}
	if _, hits := FingerprintStats(); hits <= hits0 {
		t.Errorf("second Fingerprint call did not hit the memo")
	}
	// Memoized subtrees compose to the same value as a cold tree.
	cold := Elem("r", Text("a", "1"), Text("b", "2"))
	sub := cold.Children[0]
	sub.Fingerprint() // warm only the subtree
	if cold.Fingerprint() != fp1 {
		t.Errorf("partially warmed tree fingerprints differently")
	}
}

func TestFingerprintConcurrent(t *testing.T) {
	tree := Elem("root")
	for i := 0; i < 200; i++ {
		tree.Children = append(tree.Children, Text("item", fmt.Sprintf("v%d", i)))
	}
	want := tree.Clone().Fingerprint()
	var wg sync.WaitGroup
	got := make([]Fingerprint, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = tree.Fingerprint()
		}(i)
	}
	wg.Wait()
	for i, fp := range got {
		if fp != want {
			t.Errorf("goroutine %d got %v, want %v", i, fp, want)
		}
	}
}

func TestAtomFingerprint(t *testing.T) {
	// Element whose text content equals a leaf's label: atoms are equal,
	// so atom fingerprints must agree even though structures differ.
	if Text("zip", "92093").AtomFingerprint() != Leaf("92093").AtomFingerprint() {
		t.Errorf("zip[92093] and leaf 92093 must share an atom fingerprint")
	}
	// Different leaf splits with equal concatenation.
	a := Elem("x", Leaf("ab"), Leaf("c"))
	b := Elem("y", Leaf("a"), Leaf("bc"))
	if a.AtomFingerprint() != b.AtomFingerprint() {
		t.Errorf("equal concatenated text must share an atom fingerprint")
	}
	if Leaf("abc").AtomFingerprint() != a.AtomFingerprint() {
		t.Errorf("leaf abc and x[ab,c] must share an atom fingerprint")
	}
	if Leaf("abc").AtomFingerprint() == Leaf("abd").AtomFingerprint() {
		t.Errorf("different atoms should (virtually always) differ")
	}
}

// TestFingerprintFold: a folded tuple key depends on every member and
// on their order, and equal tuples fold equal.
func TestFingerprintFold(t *testing.T) {
	a, b := Text("zip", "92093").Fingerprint(), Text("zip", "91220").Fingerprint()
	if a.Fold(b) != Text("zip", "92093").Fingerprint().Fold(Text("zip", "91220").Fingerprint()) {
		t.Errorf("equal tuples must fold equal")
	}
	if a.Fold(b) == b.Fold(a) {
		t.Errorf("folding must depend on the order")
	}
	if a.Fold(b) == a.Fold(a) || a.Fold(b) == a || a.Fold(b).IsZero() {
		t.Errorf("a fold must (virtually always) differ from its parts and from other tuples")
	}
}

func TestInterner(t *testing.T) {
	in := NewInterner()
	a := in.Intern("home")
	b := in.Intern("home")
	if a != b {
		t.Errorf("interned strings differ")
	}
	c := in.InternBytes([]byte("home"))
	if c != a {
		t.Errorf("InternBytes did not return the canonical string")
	}
	if in.Len() != 1 {
		t.Errorf("Len = %d, want 1", in.Len())
	}
	hits, misses := in.Stats()
	if hits != 2 || misses != 1 {
		t.Errorf("Stats = (%d, %d), want (2, 1)", hits, misses)
	}
	// nil interner is a pass-through.
	var nilIn *Interner
	if nilIn.Intern("x") != "x" || nilIn.InternBytes([]byte("y")) != "y" {
		t.Errorf("nil interner must pass through")
	}
	if nilIn.Len() != 0 {
		t.Errorf("nil interner Len != 0")
	}
}

func TestInternBytesNoAllocOnHit(t *testing.T) {
	in := NewInterner()
	in.Intern("warm")
	b := []byte("warm")
	allocs := testing.AllocsPerRun(100, func() { in.InternBytes(b) })
	if allocs != 0 {
		t.Errorf("InternBytes hit allocates %v times per run, want 0", allocs)
	}
}

func BenchmarkFingerprintCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tree := benchTree(50)
		b.StartTimer()
		tree.Fingerprint()
	}
}

func BenchmarkFingerprintWarm(b *testing.B) {
	tree := benchTree(50)
	tree.Fingerprint()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Fingerprint()
	}
}

func BenchmarkCanonicalKey(b *testing.B) {
	tree := benchTree(50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tree.Canonical()
	}
}

func benchTree(n int) *Tree {
	root := Elem("catalog")
	for i := 0; i < n; i++ {
		root.Children = append(root.Children,
			Elem("book",
				Text("title", fmt.Sprintf("Title %d", i)),
				Text("author", fmt.Sprintf("Author %d", i%7)),
				Text("price", fmt.Sprintf("%d.99", i%40)),
			))
	}
	return root
}
