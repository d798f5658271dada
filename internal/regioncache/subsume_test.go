package regioncache

import (
	"fmt"
	"slices"
	"testing"

	"mix/internal/algebra"
	"mix/internal/nav"
	"mix/internal/xmltree"
)

// superTree is a small fully explored answer of a planFor plan:
// merged into an entry, it makes the entry Complete.
func superTree() *xmltree.Tree {
	return xmltree.Elem("r", xmltree.Elem("a", xmltree.Leaf("x")), xmltree.Elem("a", xmltree.Leaf("y")))
}

// subsumeKey is the key of plan fp in the test view's bucket.
func subsumeKey(c *Cache, fp string) Key {
	return Key{Generation: c.Generation(), Registry: 1, Name: "v", Fingerprint: fp}
}

// trySubsume runs the semantic lookup for a fresh sub entry whose plan
// equals planFor("a") (so every planFor("a") candidate contains it) and
// reports whether it hit, how often rebuild ran and the superset it
// last read, which it answers with whole.
func trySubsume(c *Cache) (hit bool, rebuilds int, read Tree) {
	sub := c.Open(subsumeKey(c, "sub"))
	hit = c.Subsume(sub, planFor("a"), func(_ *algebra.Containment, super Tree) (Tree, bool) {
		rebuilds++
		read = super
		return super, true
	})
	return hit, rebuilds, read
}

// fakeRemote answers every Fetch with one fixed region.
type fakeRemote struct {
	region  *Region
	fetches int
}

func (r *fakeRemote) Fetch(Key) *Region {
	r.fetches++
	return r.region
}

// TestSemanticSkipsIncompleteBeforeContainment: with no remote tier a
// candidate whose local entry is partial or missing is skipped — and
// counted — before containment is even tried, so a contained one never
// reaches rebuild and a non-contained one counts as a skip too; with a
// remote tier the owner decides completeness, so the same partial local
// entry still yields a hit when the remote holds the complete region.
func TestSemanticSkipsIncompleteBeforeContainment(t *testing.T) {
	c := New(0)
	c.IndexPlan(subsumeKey(c, "contained"), planFor("a"))
	c.IndexPlan(subsumeKey(c, "other"), planFor("b")) // contains nothing here
	c.Open(subsumeKey(c, "contained")).Merge(&Region{{Label: "r", Down: WindowOut, Right: WindowNone}})
	// "other" has no entry at all.

	hit, rebuilds, _ := trySubsume(c)
	if hit || rebuilds != 0 {
		t.Fatalf("partial superset: hit=%v after %d rebuilds; want a miss that never rebuilds", hit, rebuilds)
	}
	if st := c.Stats(); st.SemanticIncompleteSkips != 2 || st.SemanticCandidates != 2 {
		t.Fatalf("stats %+v; want both candidates scanned and skipped as incomplete", st)
	}

	remote := &fakeRemote{}
	remote.region = regionOf(t, superTree())
	c.SetRemote(remote)
	hit, rebuilds, read := trySubsume(c)
	if !hit || rebuilds != 1 {
		t.Fatalf("with a remote holding the complete superset: hit=%v, %d rebuilds; want a hit", hit, rebuilds)
	}
	// The rebuild reads the absorbed local entry, not the peer's links.
	if le := c.Peek(subsumeKey(c, "contained")); le == nil || read.n != le.root || !slices.Equal(*le.Export(), *remote.region) {
		t.Fatal("rebuild did not read the local entry that absorbed the peer's region")
	}
	if remote.fetches == 0 {
		t.Fatal("the remote tier was never asked")
	}
}

// regionOf exports a complete region holding tr: an entry explored
// whole over it.
func regionOf(t *testing.T, tr *xmltree.Tree) *Region {
	t.Helper()
	e := New(0).Entry("tmp", "tmp", 1)
	explore(t, newDoc(e, nav.NewTreeDoc(tr)))
	r := e.Export()
	if !r.Complete() {
		t.Fatal("exported region is not complete")
	}
	return r
}

// TestEvictedPlansFreeTheirBucketSlots: on a cache with no remote tier,
// a full bucket whose plans' entries were all evicted does not keep a
// later complete superset out of the index.
func TestEvictedPlansFreeTheirBucketSlots(t *testing.T) {
	c := New(0)
	for i := 0; i < maxPlansPerBucket; i++ {
		k := subsumeKey(c, fmt.Sprintf("old%02d", i))
		c.IndexPlan(k, planFor("b"))
		c.Open(k)
	}
	c.mu.Lock()
	c.maxBytes = 1
	c.evictOverLocked()
	c.maxBytes = 0
	c.mu.Unlock()
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("%d entries survived the eviction", st.Entries)
	}

	k := subsumeKey(c, "super")
	c.IndexPlan(k, planFor("a"))
	c.Open(k).Merge(regionOf(t, superTree()))
	if hit, _, _ := trySubsume(c); !hit {
		t.Fatal("the complete 33rd superset was not indexed: evicted plans still hold the bucket")
	}
}

// TestOpenAndAbsorbRefreshRecency: an Open or an Absorb of an existing
// entry makes it the most recently used, so eviction takes
// the entry neither touched.
func TestOpenAndAbsorbRefreshRecency(t *testing.T) {
	c := New(0)
	d1, d2, d3 := c.Entry("d1", "fp", 1), c.Entry("d2", "fp", 1), c.Entry("d3", "fp", 1)
	c.Entry("d1", "fp", 1)
	c.Absorb(d2.Key(), regionOf(t, superTree()))
	c.mu.Lock()
	c.maxBytes = c.bytes - 1
	c.evictOverLocked()
	c.mu.Unlock()
	if c.Peek(d3.Key()) != nil {
		t.Fatal("the least recently used entry survived")
	}
	if c.Peek(d1.Key()) == nil || c.Peek(d2.Key()) == nil {
		t.Fatal("a re-opened or absorbed entry was evicted before the stale one")
	}
}

// BenchmarkOpenAtBudget opens new entries into a cache held at its byte
// budget by 10k small entries, so every Open evicts one.
func BenchmarkOpenAtBudget(b *testing.B) {
	const n = 10000
	c := New(n * (nodeBytes + keyFixedBytes))
	key := func(i int) Key {
		return Key{Registry: 1, Name: "v", Fingerprint: fmt.Sprintf("fp%d", i)}
	}
	for i := 0; i < n; i++ {
		c.Open(key(i))
	}
	keys := make([]Key, b.N)
	for i := range keys {
		keys[i] = key(n + i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, k := range keys {
		c.Open(k)
	}
}
